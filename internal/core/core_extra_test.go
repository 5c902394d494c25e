package smi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/packet"
	"repro/internal/topology"
)

func TestReduceDoublePrecision(t *testing.T) {
	const n, ranks = 30, 3
	c := busCluster(t, ranks, PortSpec{Port: 0, Kind: Reduce, Type: Double, ReduceOp: Add})
	c.SPMD("dreduce", func(x *Ctx) {
		ch, err := x.OpenReduceChannel(n, Double, Add, 0, 0, x.CommWorld())
		if err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < n; i++ {
			contrib := float64(x.Rank()) + float64(i)*0.125
			bits, ok := ch.Reduce(packet.DoubleBits(contrib))
			if ok {
				want := 3*(float64(i)*0.125) + 3 // 0+1+2
				if got := packet.BitsDouble(bits); math.Abs(got-want) > 1e-12 {
					t.Errorf("element %d = %g, want %g", i, got, want)
					return
				}
			}
		}
	})
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestScatterGatherRoundTrip(t *testing.T) {
	// Scatter chunks out, transform locally, gather back: the classic
	// distributed map pattern, exercising both collectives in sequence
	// on the same cluster run.
	const chunk, ranks = 9, 4
	c := busCluster(t, ranks,
		PortSpec{Port: 0, Kind: Scatter, Type: Int},
		PortSpec{Port: 1, Kind: Gather, Type: Int},
	)
	var got []uint64
	c.SPMD("maproundtrip", func(x *Ctx) {
		w := x.CommWorld()
		sc, err := x.OpenScatterChannel(chunk, Int, 0, 0, w)
		if err != nil {
			t.Error(err)
			return
		}
		if sc.Root() {
			for i := 0; i < chunk*ranks; i++ {
				sc.Push(uint64(i))
			}
		}
		local := make([]uint64, chunk)
		for i := range local {
			local[i] = sc.Pop() * 10 // transform
		}
		gc, err := x.OpenGatherChannel(chunk, Int, 1, 0, w)
		if err != nil {
			t.Error(err)
			return
		}
		for _, v := range local {
			gc.Push(v)
		}
		if gc.Root() {
			for i := 0; i < chunk*ranks; i++ {
				got = append(got, gc.Pop())
			}
		}
	})
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != uint64(i*10) {
			t.Fatalf("element %d = %d, want %d", i, v, i*10)
		}
	}
}

func TestScatterNonRootPushPanics(t *testing.T) {
	c := busCluster(t, 2, PortSpec{Port: 0, Kind: Scatter, Type: Int})
	c.SPMD("bad", func(x *Ctx) {
		ch, _ := x.OpenScatterChannel(2, Int, 0, 0, x.CommWorld())
		if !ch.Root() {
			ch.Push(1) // must panic
		}
		_ = ch
	})
	if _, err := c.Run(); err == nil {
		t.Fatal("non-root scatter push should fail the run")
	}
}

// TestStrayGrantIsViolation: every grant a support kernel counts is
// consumed by the round it belongs to, so one still counted when the run
// ends was a stray or extra handshake.
func TestStrayGrantIsViolation(t *testing.T) {
	for _, stray := range []bool{false, true} {
		c := busCluster(t, 2, PortSpec{Port: 0, Kind: Bcast, Type: Int})
		sup := &c.ranks[1].supports[0]
		c.SPMD("bcast", func(x *Ctx) {
			ch, _ := x.OpenBcastChannel(10, Int, 0, 0, x.CommWorld())
			for i := 0; i < 10; i++ {
				ch.Bcast(uint64(i))
			}
			if stray && x.Rank() == 1 {
				sup.netIn.PushProc(x.proc, packet.EncodeCtl(0, 1, 0, packet.Ctl{Kind: packet.CtlGrant}))
			}
		})
		_, err := c.Run()
		if !stray && err != nil {
			t.Fatal(err)
		}
		if stray && (err == nil || !strings.Contains(err.Error(), "r1.p0.bcast saw 1 protocol violations")) {
			t.Fatalf("a stray grant should be reported as a violation, got %v", err)
		}
	}
}

func TestVecWidthSpeedsUpTransfer(t *testing.T) {
	run := func(vec int) int64 {
		topo, _ := topology.Bus(2)
		c, err := NewCluster(Config{
			Topology: topo,
			Program:  ProgramSpec{Ports: []PortSpec{{Port: 0, Type: Int, VecWidth: vec, BufferElems: 1024}}},
		})
		if err != nil {
			t.Fatal(err)
		}
		const n = 7000
		c.OnRank(0, "s", func(x *Ctx) {
			ch, _ := x.OpenSendChannel(n, Int, 1, 0, x.CommWorld())
			for i := 0; i < n; i++ {
				Push(ch, int32(1))
			}
		})
		c.OnRank(1, "r", func(x *Ctx) {
			ch, _ := x.OpenRecvChannel(n, Int, 0, 0, x.CommWorld())
			for i := 0; i < n; i++ {
				Pop[int32](ch)
			}
		})
		st, err := c.Run()
		if err != nil {
			t.Fatal(err)
		}
		return st.Cycles
	}
	narrow := run(1)
	wide := run(8)
	// A scalar kernel pays one cycle per element; an 8-wide kernel is
	// limited by the transport (~1.5 cycles/packet of 7 elements).
	if float64(narrow) < 2.5*float64(wide) {
		t.Fatalf("vectorization speedup too small: %d vs %d cycles", narrow, wide)
	}
}

func TestRankResourcesAccounting(t *testing.T) {
	c := busCluster(t, 2,
		PortSpec{Port: 0, Type: Int},
		PortSpec{Port: 1, Kind: Bcast, Type: Float},
		PortSpec{Port: 2, Kind: Reduce, Type: Float, ReduceOp: Add},
	)
	rr := c.RankResources(0)
	if rr.Interconnect.LUTs <= 0 || rr.Kernels.LUTs <= 0 {
		t.Fatalf("transport resources missing: %+v", rr)
	}
	if rr.Supports.DSPs != 6 {
		t.Fatalf("FP32 SUM support should use 6 DSPs, got %d", rr.Supports.DSPs)
	}
	total := rr.Total()
	if total.LUTs != rr.Interconnect.LUTs+rr.Kernels.LUTs+rr.Supports.LUTs {
		t.Fatal("total does not add up")
	}
}

func TestPinIface(t *testing.T) {
	topo, _ := topology.Torus2D(2, 4)
	c, err := NewCluster(Config{
		Topology: topo,
		Program: ProgramSpec{Ports: []PortSpec{
			{Port: 0, Type: Int, Iface: 3, PinIface: true},
			{Port: 1, Type: Int}, // auto
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := c.ranks[0].eps[0].spec.Iface; got != 3 {
		t.Fatalf("pinned port on iface %d, want 3", got)
	}
	if got := c.ranks[0].eps[1].spec.Iface; got != 1 {
		t.Fatalf("auto port on iface %d, want 1 (round-robin index)", got)
	}
}

func TestStatsTraffic(t *testing.T) {
	const n = 700 // 100 packets
	c := busCluster(t, 4, PortSpec{Port: 0, Type: Int})
	c.OnRank(0, "s", func(x *Ctx) {
		ch, _ := x.OpenSendChannel(n, Int, 3, 0, x.CommWorld())
		for i := 0; i < n; i++ {
			Push(ch, int32(0))
		}
	})
	c.OnRank(3, "r", func(x *Ctx) {
		ch, _ := x.OpenRecvChannel(n, Int, 0, 0, x.CommWorld())
		for i := 0; i < n; i++ {
			Pop[int32](ch)
		}
	})
	st, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	// 100 packets crossing 3 links each = 300 link deliveries.
	if st.PacketsDelivered != 300 {
		t.Fatalf("delivered = %d, want 300", st.PacketsDelivered)
	}
	if st.Micros <= 0 {
		t.Fatal("missing time stats")
	}
}

func TestManyRanksLargeCluster(t *testing.T) {
	// A 4x4 torus (16 ranks) all-to-neighbor exchange: scale smoke test.
	topo, err := topology.Torus2D(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCluster(Config{
		Topology: topo,
		Program:  ProgramSpec{Ports: []PortSpec{{Port: 0, Type: Int}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	const n = 20
	c.SPMD("shift", func(x *Ctx) {
		next := (x.Rank() + 5) % x.Size()
		prev := (x.Rank() + x.Size() - 5) % x.Size()
		chs, err := x.OpenSendChannel(n, Int, next, 0, x.CommWorld())
		if err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < n; i++ {
			Push(chs, int32(x.Rank()))
		}
		chr, err := x.OpenRecvChannel(n, Int, prev, 0, x.CommWorld())
		if err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < n; i++ {
			if got := Pop[int32](chr); got != int32(prev) {
				t.Errorf("rank %d got %d, want %d", x.Rank(), got, prev)
				return
			}
		}
	})
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestGatherFromManyRanksOrdering(t *testing.T) {
	// Gather enforces rank order at the root even when later ranks are
	// "ready" earlier (the Fig 5 sequencing).
	const chunk, ranks = 5, 6
	c := busCluster(t, ranks, PortSpec{Port: 0, Kind: Gather, Type: Int})
	c.SPMD("gather", func(x *Ctx) {
		// Higher ranks push immediately; rank 1 is artificially slow.
		if x.Rank() == 1 {
			x.Sleep(2000)
		}
		ch, err := x.OpenGatherChannel(chunk, Int, 0, 0, x.CommWorld())
		if err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < chunk; i++ {
			ch.Push(uint64(x.Rank()*100 + i))
		}
		if ch.Root() {
			for i := 0; i < chunk*ranks; i++ {
				want := uint64((i/chunk)*100 + i%chunk)
				if got := ch.Pop(); got != want {
					t.Errorf("gathered %d = %d, want %d", i, got, want)
					return
				}
			}
		}
	})
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestKindStrings(t *testing.T) {
	for k, want := range map[PortKind]string{
		P2P: "p2p", Bcast: "bcast", Reduce: "reduce", Scatter: "scatter", Gather: "gather",
	} {
		if k.String() != want {
			t.Errorf("%d = %q", k, k.String())
		}
	}
	for o, want := range map[Op]string{Add: "SMI_ADD", Max: "SMI_MAX", Min: "SMI_MIN"} {
		if o.String() != want {
			t.Errorf("%v = %q", o, o.String())
		}
	}
	if fmt.Sprint(Comm{base: 1, size: 3}) != "comm[1..4)" {
		t.Error("comm string format")
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	// Ranks enter the barrier at very different times; none may leave
	// before the last one entered.
	c := busCluster(t, 4,
		PortSpec{Port: 0, Kind: Reduce, Type: Int, ReduceOp: Add},
		PortSpec{Port: 1, Kind: Bcast, Type: Int},
	)
	var lastEnter, firstLeave int64
	c.SPMD("barrier", func(x *Ctx) {
		x.Sleep(int64(x.Rank()) * 1000) // staggered arrival
		enter := x.Now()
		if enter > lastEnter {
			lastEnter = enter
		}
		if err := Barrier(x, 0, 1, x.CommWorld()); err != nil {
			t.Error(err)
			return
		}
		leave := x.Now()
		if firstLeave == 0 || leave < firstLeave {
			firstLeave = leave
		}
	})
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if firstLeave < lastEnter {
		t.Fatalf("rank left the barrier at %d before the last entered at %d", firstLeave, lastEnter)
	}
}

func TestBarrierRepeated(t *testing.T) {
	c := busCluster(t, 3,
		PortSpec{Port: 0, Kind: Reduce, Type: Int, ReduceOp: Add},
		PortSpec{Port: 1, Kind: Bcast, Type: Int},
	)
	c.SPMD("barriers", func(x *Ctx) {
		for i := 0; i < 5; i++ {
			if err := Barrier(x, 0, 1, x.CommWorld()); err != nil {
				t.Error(err)
				return
			}
		}
	})
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestAllReduce(t *testing.T) {
	const n, ranks = 40, 4
	c := busCluster(t, ranks,
		PortSpec{Port: 0, Kind: Reduce, Type: Int, ReduceOp: Add},
		PortSpec{Port: 1, Kind: Bcast, Type: Int},
	)
	c.SPMD("allreduce", func(x *Ctx) {
		err := AllReduce(x, n, Int, Add, 0, 1, x.CommWorld(),
			func(i int) uint64 { return uint64(uint32(int32(x.Rank()*100 + i))) },
			func(i int, bits uint64) {
				want := int32(ranks*(ranks-1)/2*100 + ranks*i)
				if got := packet.BitsInt(bits); got != want {
					t.Errorf("rank %d element %d = %d, want %d", x.Rank(), i, got, want)
				}
			})
		if err != nil {
			t.Error(err)
		}
	})
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestAllReduceTreePorts(t *testing.T) {
	// AllReduce composes with tree-based collective ports unchanged.
	const n, ranks = 25, 8
	c := busCluster(t, ranks,
		PortSpec{Port: 0, Kind: Reduce, Type: Float, ReduceOp: Max, Tree: true},
		PortSpec{Port: 1, Kind: Bcast, Type: Float, Tree: true},
	)
	c.SPMD("allreduce", func(x *Ctx) {
		err := AllReduce(x, n, Float, Max, 0, 1, x.CommWorld(),
			func(i int) uint64 { return uint64(packet.FloatBits(float32(x.Rank()) - float32(i))) },
			func(i int, bits uint64) {
				want := float32(ranks-1) - float32(i)
				if got := packet.BitsFloat(bits); got != want {
					t.Errorf("rank %d element %d = %g, want %g", x.Rank(), i, got, want)
				}
			})
		if err != nil {
			t.Error(err)
		}
	})
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestLinkStats(t *testing.T) {
	const n = 7000 // 1000 packets over one hop
	c := busCluster(t, 3, PortSpec{Port: 0, Type: Int, VecWidth: 8, BufferElems: 1024})
	c.OnRank(0, "s", func(x *Ctx) {
		ch, _ := x.OpenSendChannel(n, Int, 1, 0, x.CommWorld())
		for i := 0; i < n; i++ {
			Push(ch, int32(0))
		}
	})
	c.OnRank(1, "r", func(x *Ctx) {
		ch, _ := x.OpenRecvChannel(n, Int, 0, 0, x.CommWorld())
		for i := 0; i < n; i++ {
			Pop[int32](ch)
		}
	})
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	stats := c.LinkStats()
	if len(stats) != 4 { // 2 cables x 2 directions
		t.Fatalf("links = %d, want 4", len(stats))
	}
	var busiest LinkStats
	for _, s := range stats {
		if s.Delivered > busiest.Delivered {
			busiest = s
		}
	}
	if busiest.Delivered != 1000 {
		t.Fatalf("hot link carried %d packets, want 1000", busiest.Delivered)
	}
	if busiest.Utilization <= 0 || busiest.Utilization > 1 {
		t.Fatalf("utilization = %f", busiest.Utilization)
	}
}

func TestChromeTraceOutput(t *testing.T) {
	topo, _ := topology.Bus(2)
	var buf bytes.Buffer
	c, err := NewCluster(Config{
		Topology:    topo,
		Program:     ProgramSpec{Ports: []PortSpec{{Port: 0, Type: Int}}},
		ChromeTrace: &buf,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.OnRank(0, "s", func(x *Ctx) {
		ch, _ := x.OpenSendChannel(50, Int, 1, 0, x.CommWorld())
		for i := 0; i < 50; i++ {
			Push(ch, int32(i))
		}
	})
	c.OnRank(1, "r", func(x *Ctx) {
		ch, _ := x.OpenRecvChannel(50, Int, 0, 0, x.CommWorld())
		for i := 0; i < 50; i++ {
			Pop[int32](ch)
		}
	})
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	var out map[string]any
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	if _, ok := out["traceEvents"]; !ok {
		t.Fatal("traceEvents missing")
	}
}

func TestCtxHelpers(t *testing.T) {
	c := busCluster(t, 4, PortSpec{Port: 0, Type: Int})
	c.OnRank(2, "helpers", func(x *Ctx) {
		if x.Rank() != 2 || x.Size() != 4 {
			t.Errorf("identity wrong: %d/%d", x.Rank(), x.Size())
		}
		if x.CommRank(x.CommWorld()) != 2 {
			t.Error("world comm rank wrong")
		}
		sub, _ := x.CommWorld().Sub(0, 2)
		if x.CommRank(sub) != -1 {
			t.Error("non-member comm rank should be -1")
		}
		start := x.Now()
		x.Tick()
		if x.Now() != start+1 {
			t.Error("Tick should cost one cycle")
		}
		// Streaming 256 bytes from one 64B/cycle bank costs 4 cycles.
		before := x.Now()
		x.StreamMem(256, 1)
		if x.Now()-before != 4 {
			t.Errorf("StreamMem cost %d cycles, want 4", x.Now()-before)
		}
		if x.Board().MemBanks != 4 {
			t.Error("board accessor wrong")
		}
	})
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestMaxCyclesSurfacesFromCluster(t *testing.T) {
	topo, _ := topology.Bus(2)
	c, err := NewCluster(Config{
		Topology:  topo,
		Program:   ProgramSpec{Ports: []PortSpec{{Port: 0, Type: Int}}},
		MaxCycles: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.OnRank(0, "spin", func(x *Ctx) {
		for i := 0; i < 10000; i++ {
			x.Tick()
		}
	})
	if _, err := c.Run(); err == nil {
		t.Fatal("expected cycle-limit error")
	}
}
