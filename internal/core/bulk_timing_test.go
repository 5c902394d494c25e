package smi

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/topology"
)

var updateBulkTiming = flag.Bool("update-bulk-timing", false, "rewrite testdata/bulk_error_timing.txt")

// bulkKillRow runs one 64-int PushSlice/PopSlice transfer from rank 0 to
// rank 2 of a three-rank bus whose 0-1 cable dies at killAt (never if
// killAt < 0), and reports how each side's bulk call ended: the error
// kind, the cycle the call returned and the elements it consumed. With
// again >= 0 the sender pushes a second 64-int message from cycle again,
// which no receiver drains. The endpoint buffer (16 elements) makes the
// streaming transfer a rendezvous and the credited one wait for credit.
func bulkKillRow(t *testing.T, mode Mode, killAt, patience, again int64) string {
	t.Helper()
	topo, err := topology.Bus(3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Topology: topo,
		Program:  ProgramSpec{Ports: []PortSpec{{Port: 0, Type: Int, Mode: mode, BufferElems: 16}}},
		Faults:   &fault.Spec{},
	}
	if killAt >= 0 {
		conn := topo.Connections[0] // the 0-1 cable
		cfg.Faults.Events = []fault.Event{
			{Link: fmt.Sprintf("%s->%s", conn.A, conn.B), Kind: fault.Kill, At: killAt},
			{Link: fmt.Sprintf("%s->%s", conn.B, conn.A), Kind: fault.Kill, At: killAt},
		}
	}
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const n = 64
	var opts []ChannelOption
	if patience > 0 {
		opts = []ChannelOption{WithDeadline(patience)}
	}
	outcome := func(x *Ctx, got int, err error) string {
		kind := "ok"
		if err != nil {
			kind = errKind(err).String()
		}
		return fmt.Sprintf("%s n=%d at=%d", kind, got, x.Now())
	}
	var send, send2, recv string
	c.OnRank(0, "tx", func(x *Ctx) {
		vs := make([]int32, n)
		for i := range vs {
			vs[i] = int32(i * 3)
		}
		ch, err := x.OpenSend(ChannelOpts{Count: n, Type: Int, Dst: 2, Port: 0, Opts: opts})
		if err != nil {
			t.Error(err)
			return
		}
		got, err := PushSlice(ch, vs)
		send = outcome(x, got, err)
		if again < 0 || err != nil {
			return
		}
		x.Sleep(again - x.Now())
		if ch, err = x.OpenSend(ChannelOpts{Count: n, Type: Int, Dst: 2, Port: 0, Opts: opts}); err != nil {
			t.Error(err)
			return
		}
		got, err = PushSlice(ch, vs)
		send2 = " | again " + outcome(x, got, err)
	})
	c.OnRank(2, "rx", func(x *Ctx) {
		ch, err := x.OpenRecv(ChannelOpts{Count: n, Type: Int, Src: 0, Port: 0, Opts: opts})
		if err != nil {
			t.Error(err)
			return
		}
		vs := make([]int32, n)
		got, err := PopSlice(ch, vs)
		for i := 0; i < got; i++ {
			if vs[i] != int32(i*3) {
				t.Errorf("kill at %d: element %d = %d", killAt, i, vs[i])
				break
			}
		}
		recv = outcome(x, got, err)
	})
	st, err := c.Run()
	run := "ok"
	if err != nil {
		run = "error"
	}
	return fmt.Sprintf("%v kill=%d patience=%d run=%s cycles=%d | send %s | recv %s%s", mode, killAt, patience, run, st.Cycles, send, recv, send2)
}

// TestBulkErrorTiming pins when and how PushSlice and PopSlice fail
// when a cable dies under a transfer, for kill cycles across the whole
// transfer in every transfer mode (every cycle for packet and circuit,
// whose transfers end by cycle 318; every 12th of credited's 3236 and
// every 3rd of streaming's 801): the error kind, the cycle the call
// returns and the elements consumed on both sides must match the
// committed table row for row. In packet and circuit mode the network
// buffers a whole 64-int message, so the sender's first push always
// succeeds; a second push started around the cluster-failure verdict
// (about 2850 cycles after a kill at cycle 0) is cut at every element
// position. Regenerate with -update-bulk-timing only for an intended
// timing change.
func TestBulkErrorTiming(t *testing.T) {
	var rows []string
	for _, m := range []struct {
		mode         Mode
		last, stride int64
		again        bool
	}{
		{ModePacket, 420, 1, true},
		{ModeCircuit, 420, 1, true},
		{ModeCredited, 3240, 12, false},
		{ModeStreaming, 805, 3, false},
	} {
		for _, patience := range []int64{0, 300} {
			rows = append(rows, bulkKillRow(t, m.mode, -1, patience, -1))
			for k := int64(0); k <= m.last; k += m.stride {
				rows = append(rows, bulkKillRow(t, m.mode, k, patience, -1))
			}
		}
		if m.again {
			for again := int64(2780); again <= 2860; again++ {
				rows = append(rows, bulkKillRow(t, m.mode, 0, 0, again))
			}
		}
	}
	got := strings.Join(rows, "\n") + "\n"
	path := filepath.Join("testdata", "bulk_error_timing.txt")
	if *updateBulkTiming {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	wantRows := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	if len(wantRows) != len(rows) {
		t.Fatalf("%d rows, table has %d", len(rows), len(wantRows))
	}
	for i := range rows {
		if rows[i] != wantRows[i] {
			t.Errorf("row %d:\n got  %s\n want %s", i, rows[i], wantRows[i])
		}
	}
}
