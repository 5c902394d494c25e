package smi

import (
	"fmt"
	"testing"

	"repro/internal/fault"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topology"
)

// streamRun executes a src->dst stream of n ints and returns the stats
// and the received values.
func streamRun(t *testing.T, cfg Config, src, dst, n int) (Stats, []int32) {
	t.Helper()
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.OnRank(src, "tx", func(x *Ctx) {
		ch, err := x.OpenSendChannel(n, Int, dst, 0, x.CommWorld())
		if err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < n; i++ {
			ch.PushInt(int32(i))
		}
	})
	var got []int32
	c.OnRank(dst, "rx", func(x *Ctx) {
		ch, err := x.OpenRecvChannel(n, Int, src, 0, x.CommWorld())
		if err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < n; i++ {
			got = append(got, ch.PopInt())
		}
	})
	st, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	return st, got
}

func checkStream(t *testing.T, got []int32, n int) {
	t.Helper()
	if len(got) != n {
		t.Fatalf("received %d elements, want %d", len(got), n)
	}
	for i, v := range got {
		if v != int32(i) {
			t.Fatalf("element %d = %d: lost, duplicated or reordered data", i, v)
		}
	}
}

// TestZeroFaultSpecTimingParity is the acceptance bar for the fault
// subsystem: attaching a fault spec that schedules nothing (and thereby
// enabling CRCs, sequence numbers, acks and timers on every link) must
// reproduce the pristine cluster's cycle counts bit for bit.
func TestZeroFaultSpecTimingParity(t *testing.T) {
	topo, err := topology.Torus2D(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	base := Config{Topology: topo, Program: ProgramSpec{Ports: []PortSpec{{Port: 0, Type: Int}}},
		RoutingPolicy: routing.UpDown}

	const n = 4000
	pristine, got := streamRun(t, base, 0, 3, n)
	checkStream(t, got, n)

	zeroSpec := base
	zeroSpec.Faults = &fault.Spec{Seed: 12345} // seed alone schedules nothing
	withSpec, got2 := streamRun(t, zeroSpec, 0, 3, n)
	checkStream(t, got2, n)

	forced := base
	forced.Reliable = true
	withProto, got3 := streamRun(t, forced, 0, 3, n)
	checkStream(t, got3, n)

	if withSpec.Cycles != pristine.Cycles || withProto.Cycles != pristine.Cycles {
		t.Fatalf("reliability layer perturbed fault-free timing: pristine=%d zero-spec=%d reliable=%d cycles",
			pristine.Cycles, withSpec.Cycles, withProto.Cycles)
	}
	if withSpec.Retransmits != 0 || withSpec.CrcErrors != 0 {
		t.Fatalf("zero-fault run did repair work: %+v", withSpec)
	}
	if withSpec.PacketsDelivered != pristine.PacketsDelivered {
		t.Fatalf("delivered %d packets with the protocol, %d without", withSpec.PacketsDelivered, pristine.PacketsDelivered)
	}
}

// TestP2PRecoversFromDropAndFlap runs a point-to-point transfer through
// a scripted packet drop and a transient link flap: the payload must
// arrive complete, in order and duplicate-free, with the repair cost
// visible in the counters.
func TestP2PRecoversFromDropAndFlap(t *testing.T) {
	topo, err := topology.Bus(2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Topology: topo,
		Program:  ProgramSpec{Ports: []PortSpec{{Port: 0, Type: Int}}},
		Faults: &fault.Spec{Events: []fault.Event{
			{Kind: fault.Drop, At: 500},              // every link drops one packet
			{Kind: fault.Flap, At: 900, Until: 1100}, // and loses carrier for 200 cycles
		}},
	}
	const n = 5000
	st, got := streamRun(t, cfg, 0, 1, n)
	checkStream(t, got, n)
	if st.Retransmits == 0 {
		t.Fatalf("faults were injected but nothing was retransmitted: %+v", st)
	}
	if st.FaultsInjected.Dropped == 0 {
		t.Fatalf("scripted drop never fired: %+v", st.FaultsInjected)
	}
	if st.FaultsInjected.FlapLost == 0 {
		t.Fatalf("flap lost nothing (no traffic in the window?): %+v", st.FaultsInjected)
	}
	if st.Failovers != 0 {
		t.Fatalf("transient faults must not trigger failover: %+v", st)
	}
}

// TestBcastUnderScriptedFaults checks an 8-rank broadcast survives drops
// and a flap with every rank observing the exact root payload.
func TestBcastUnderScriptedFaults(t *testing.T) {
	topo, err := topology.Bus(8)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCluster(Config{
		Topology: topo,
		Program:  ProgramSpec{Ports: []PortSpec{{Port: 0, Kind: Bcast, Type: Int}}},
		Faults: &fault.Spec{Events: []fault.Event{
			{Kind: fault.Drop, At: 400},
			{Kind: fault.Flap, At: 1200, Until: 1400},
			{Kind: fault.Drop, At: 2500},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	const n = 300
	c.SPMD("bcast", func(x *Ctx) {
		ch, err := x.OpenBcastChannel(n, Int, 0, 0, x.CommWorld())
		if err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < n; i++ {
			v := int32(-1)
			if ch.Root() {
				v = int32(i * 7)
			}
			if got := ch.BcastInt(v); got != int32(i*7) {
				t.Errorf("rank %d element %d = %d, want %d", x.Rank(), i, got, i*7)
				return
			}
		}
	})
	st, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if st.Retransmits == 0 {
		t.Fatalf("faulted broadcast did not retransmit: %+v", st)
	}
}

// TestFailoverReroutesAndRescues kills a cable on the routed path of an
// in-progress bulk transfer on a 2x4 torus. The failover controller
// must detect the death, regenerate CDG-verified up*/down* routes on the
// surviving topology, rescue the in-flight window, and complete the
// transfer without loss or duplication.
func TestFailoverReroutesAndRescues(t *testing.T) {
	topo, err := topology.Torus2D(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	const src, dst = 0, 5
	// Find the first cable on the fault-free route so the kill is
	// guaranteed to hit live traffic.
	pre, err := routing.Compute(topo, routing.UpDown)
	if err != nil {
		t.Fatal(err)
	}
	exit := pre.At(src, dst)
	if exit < 0 {
		t.Fatalf("no route %d->%d", src, dst)
	}
	nb, ok := topo.Neighbor(src, exit)
	if !ok {
		t.Fatal("routed exit interface is not cabled")
	}
	deadLink := fmt.Sprintf("%d:%d->%d:%d", src, exit, nb.Device, nb.Iface)

	cfg := Config{
		Topology:      topo,
		Program:       ProgramSpec{Ports: []PortSpec{{Port: 0, Type: Int}}},
		RoutingPolicy: routing.UpDown,
		Faults: &fault.Spec{Events: []fault.Event{
			{Link: deadLink, Kind: fault.Kill, At: 3000},
		}},
	}
	const n = 30000
	st, got := streamRun(t, cfg, src, dst, n)
	checkStream(t, got, n)
	if st.Failovers != 1 {
		t.Fatalf("want exactly one failover, got %+v", st)
	}
	if st.RescuedPackets == 0 {
		t.Fatalf("a kill mid-stream must strand packets to rescue: %+v", st)
	}
	if st.FailoverCycles <= 0 {
		t.Fatalf("failover must charge repair time: %+v", st)
	}
	if st.PacketsDropped != 0 {
		t.Fatalf("failover dropped packets on a still-connected topology: %+v", st)
	}
}

// TestFailoverShardParity runs the kill-mid-stream failover under the
// parallel scheduler: the barrier-stepped coordinator must reproduce the
// dense fault manager cycle for cycle — death detection, route
// regeneration, barrier-time packet rescue, and resume — with the stream
// delivered intact and identical failover accounting.
func TestFailoverShardParity(t *testing.T) {
	topo, err := topology.Torus2D(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	const src, dst, n = 0, 5, 30000
	pre, err := routing.Compute(topo, routing.UpDown)
	if err != nil {
		t.Fatal(err)
	}
	exit := pre.At(src, dst)
	nb, ok := topo.Neighbor(src, exit)
	if !ok {
		t.Fatal("routed exit interface is not cabled")
	}
	deadLink := fmt.Sprintf("%d:%d->%d:%d", src, exit, nb.Device, nb.Iface)

	run := func(kind sim.SchedulerKind, shards int) Stats {
		cfg := Config{
			Topology:      topo,
			Program:       ProgramSpec{Ports: []PortSpec{{Port: 0, Type: Int}}},
			RoutingPolicy: routing.UpDown,
			Scheduler:     kind,
			Shards:        shards,
			Faults: &fault.Spec{Events: []fault.Event{
				{Link: deadLink, Kind: fault.Kill, At: 3000},
			}},
		}
		st, got := streamRun(t, cfg, src, dst, n)
		checkStream(t, got, n)
		return st
	}
	dense := run(sim.SchedDense, 0)
	if dense.Failovers != 1 || dense.RescuedPackets == 0 {
		t.Fatalf("reference run did not exercise the failover: %+v", dense)
	}
	for _, workers := range []int{2, 4} {
		st := run(sim.SchedShardAdaptive, workers)
		if st.Cycles != dense.Cycles {
			t.Errorf("%d workers finished at cycle %d, dense at %d", workers, st.Cycles, dense.Cycles)
		}
		if st.Failovers != dense.Failovers || st.RescuedPackets != dense.RescuedPackets ||
			st.FailoverCycles != dense.FailoverCycles {
			t.Errorf("%d workers: failover accounting (failovers=%d rescued=%d cycles=%d) diverges from dense (%d/%d/%d)",
				workers, st.Failovers, st.RescuedPackets, st.FailoverCycles,
				dense.Failovers, dense.RescuedPackets, dense.FailoverCycles)
		}
		if st.Sched.Shards != workers || st.Sched.Syncs == 0 {
			t.Errorf("%d workers did not run in parallel: shards=%d syncs=%d", workers, st.Sched.Shards, st.Sched.Syncs)
		}
	}
}

// TestFailoverSurvivesOnEveryTorusCable repeats the kill for every cable
// of the torus (whether or not it carries the stream), checking route
// regeneration always yields a connected, deadlock-free result and the
// transfer always completes.
func TestFailoverSurvivesOnEveryTorusCable(t *testing.T) {
	topo, err := topology.Torus2D(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	const src, dst, n = 0, 5, 8000
	for i, conn := range topo.Connections {
		i, conn := i, conn
		t.Run(fmt.Sprintf("cable%d", i), func(t *testing.T) {
			deadLink := fmt.Sprintf("%s->%s", conn.A, conn.B)
			cfg := Config{
				Topology:      topo,
				Program:       ProgramSpec{Ports: []PortSpec{{Port: 0, Type: Int}}},
				RoutingPolicy: routing.UpDown,
				Faults: &fault.Spec{Events: []fault.Event{
					{Link: deadLink, Kind: fault.Kill, At: 2000},
				}},
			}
			st, got := streamRun(t, cfg, src, dst, n)
			checkStream(t, got, n)
			if st.PacketsDropped != 0 {
				t.Fatalf("dropped packets: %+v", st)
			}
		})
	}
}
