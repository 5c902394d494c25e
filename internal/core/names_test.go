package smi

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/topology"
)

var updateNames = flag.Bool("update-names", false, "rewrite testdata/names_torus2x2.txt")

// TestNamesPinned pins every name a user can see of a small cluster —
// the Chrome trace's lanes (kernels and procs), the link names of
// LinkStats and the text of a DeadlockError — byte for byte against
// testdata/names_torus2x2.txt. The cluster is a 2x2 torus with one
// point-to-point port and one Bcast port: every rank joins a Bcast, rank
// 0 streams to rank 3, and rank 2 then waits for a message nobody sends.
// Regenerate with -update-names (package path first) only for an
// intended rename.
func TestNamesPinned(t *testing.T) {
	topo, err := topology.Torus2D(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	var trace bytes.Buffer
	c, err := NewCluster(Config{
		Topology: topo,
		Program: ProgramSpec{Ports: []PortSpec{
			{Port: 0, Type: Int},
			{Port: 1, Kind: Bcast, Type: Int},
		}},
		ChromeTrace: &trace,
	})
	if err != nil {
		t.Fatal(err)
	}
	const n = 24
	c.SPMD("bcast", func(x *Ctx) {
		bc, err := x.OpenBcastChannel(n, Int, 1, 0, x.CommWorld())
		if err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < n; i++ {
			bc.BcastInt(int32(i))
		}
	})
	c.OnRank(0, "send", func(x *Ctx) {
		ch, err := x.OpenSendChannel(n, Int, 3, 0, x.CommWorld())
		if err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < n; i++ {
			Push(ch, int32(i))
		}
	})
	c.OnRank(3, "recv", func(x *Ctx) {
		ch, err := x.OpenRecvChannel(n, Int, 0, 0, x.CommWorld())
		if err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < n; i++ {
			Pop[int32](ch)
		}
	})
	c.OnRank(2, "stuck", func(x *Ctx) {
		ch, err := x.OpenRecvChannel(1, Int, 1, 0, x.CommWorld())
		if err != nil {
			t.Error(err)
			return
		}
		Pop[int32](ch)
	})
	_, runErr := c.Run()
	if runErr == nil {
		t.Fatal("a receive with no sender ran to completion")
	}

	var b strings.Builder
	b.WriteString("# trace lanes\n")
	var doc struct {
		TraceEvents []struct {
			Phase string `json:"ph"`
			Args  struct {
				Name string `json:"name"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(trace.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	for _, ev := range doc.TraceEvents {
		if ev.Phase == "M" {
			b.WriteString(ev.Args.Name + "\n")
		}
	}
	b.WriteString("# links\n")
	for _, l := range c.LinkStats() {
		b.WriteString(l.Name + "\n")
	}
	b.WriteString("# deadlock\n" + runErr.Error() + "\n")
	got := b.String()

	path := filepath.Join("testdata", "names_torus2x2.txt")
	if *updateNames {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("names drifted from %s:\n--- got\n%s--- want\n%s", path, got, want)
	}
}
