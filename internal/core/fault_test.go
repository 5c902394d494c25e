package smi

import (
	"fmt"
	"strings"
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
			Push(ch, int32(i))
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
			got = append(got, Pop[int32](ch))
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

// rawKillCluster builds the scenario of the two tests below: a torus
// whose 0->1 cable dies at killAt while rank 0 feeds rank 1 over a
// raw-word port (port 0; port 1 is a plain packet port), under the given
// scheduler.
func rawKillCluster(t *testing.T, mode Mode, kind sim.SchedulerKind, shards int, killAt int64) *Cluster {
	t.Helper()
	topo, err := topology.Torus2D(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	pre, err := routing.Compute(topo, routing.UpDown)
	if err != nil {
		t.Fatal(err)
	}
	exit := pre.At(0, 1)
	nb, ok := topo.Neighbor(0, exit)
	if !ok || nb.Device != 1 {
		t.Fatalf("ranks 0 and 1 are not cabled on the routed exit %d", exit)
	}
	c, err := NewCluster(Config{
		Topology: topo,
		Program: ProgramSpec{Ports: []PortSpec{
			{Port: 0, Type: Int, Mode: mode, VecWidth: 8, BufferElems: 4096},
			{Port: 1, Type: Int},
		}},
		RoutingPolicy: routing.UpDown,
		Scheduler:     kind,
		Shards:        shards,
		MaxCycles:     200_000,
		Faults: &fault.Spec{Events: []fault.Event{
			{Link: fmt.Sprintf("0:%d->1:%d", exit, nb.Iface), Kind: fault.Kill, At: killAt},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// rawKillScheds is the scheduler axis of the raw-fragment kill tests.
var rawKillScheds = []struct {
	name   string
	kind   sim.SchedulerKind
	shards int
}{
	{"dense", sim.SchedDense, 0},
	{"event", sim.SchedEvent, 0},
	{"shard-adaptive", sim.SchedShardAdaptive, 4},
}

// TestKillMidFragmentFailsTyped is the robustness contract for raw-word
// transfers: a cable that dies with a stream fragment on it — circuit or
// streaming, it is one data path — cannot be repaired, because the
// headerless words of the fragment carry no address to re-route them by.
// Both blocked operations must return ClusterFailed and the cause must
// name the torn fragment; before the rule existed the circuit run ended
// in a deadlock report and the streaming run in a protocol panic.
func TestKillMidFragmentFailsTyped(t *testing.T) {
	const n, killAt = 65536, 1500
	for _, mode := range rawModes {
		for _, s := range rawKillScheds {
			t.Run(mode.String()+"/"+s.name, func(t *testing.T) {
				c := rawKillCluster(t, mode, s.kind, s.shards, killAt)
				var sendErr, recvErr error
				c.OnRank(0, "tx", func(x *Ctx) {
					ch, err := x.OpenSendChannel(n, Int, 1, 0, x.CommWorld())
					if err != nil {
						t.Error(err)
						return
					}
					for i := 0; i < n && sendErr == nil; i++ {
						sendErr = PushE(ch, int32(i))
					}
				})
				c.OnRank(1, "rx", func(x *Ctx) {
					ch, err := x.OpenRecvChannel(n, Int, 0, 0, x.CommWorld())
					if err != nil {
						t.Error(err)
						return
					}
					for i := 0; i < n && recvErr == nil; i++ {
						var v int32
						if v, recvErr = PopE[int32](ch); recvErr == nil && v != int32(i) {
							t.Errorf("element %d = %d before the failure", i, v)
							return
						}
					}
				})
				st, err := c.Run()
				if err != nil {
					t.Fatalf("recovering rank programs must finish cleanly, got %v", err)
				}
				if !st.ClusterFailed || st.Failovers != 0 {
					t.Fatalf("want a failed cluster and no completed failover: %+v", st)
				}
				for side, e := range map[string]error{"send": sendErr, "recv": recvErr} {
					if !IsClusterFailed(e) {
						t.Errorf("%s: want ClusterFailed, got %v", side, e)
					}
				}
				if cause := c.FailureCause(); cause == nil || !strings.Contains(cause.Error(), "tore a stream fragment") {
					t.Errorf("FailureCause = %v", cause)
				}
			})
		}
	}
}

// TestKillBetweenRawMessagesFailsOver is the other half of the contract:
// a cable that dies while no fragment is on it tears nothing, so a
// raw-word port fails over like packet traffic and the messages on both
// sides of the repair arrive bit-exact, at the same cycle under every
// scheduler. A dead cable is only found by traffic that goes
// unacknowledged. Streaming brings its own probe — the rendezvous request
// of the second message is a headered packet, lost, detected, rescued
// and answered over the new route before any raw word moves. A circuit's
// first packet already opens its one fragment, so there a one-packet
// ping-pong on the plain port finds the dead cable first.
func TestKillBetweenRawMessagesFailsOver(t *testing.T) {
	const n, killAt, resumeAt = 8000, 4000, 6000
	for _, mode := range rawModes {
		probe := mode == ModeCircuit
		var ref Stats
		for i, s := range rawKillScheds {
			c := rawKillCluster(t, mode, s.kind, s.shards, killAt)
			c.OnRank(0, "tx", func(x *Ctx) {
				for msg := 0; msg < 2; msg++ {
					ch, err := x.OpenSendChannel(n, Int, 1, 0, x.CommWorld())
					if err != nil {
						t.Error(err)
						return
					}
					for i := 0; i < n; i++ {
						Push(ch, int32(msg*n+i))
					}
					if msg == 1 {
						return
					}
					if now := x.Now(); now < killAt {
						x.Sleep(resumeAt - now)
					} else {
						t.Errorf("first message still sending at cycle %d; the kill at %d is not between messages", now, killAt)
					}
					if probe {
						pch, err := x.OpenSendChannel(1, Int, 1, 1, x.CommWorld())
						if err != nil {
							t.Error(err)
							return
						}
						Push(pch, int32(-1))
						ack, err := x.OpenRecvChannel(1, Int, 1, 1, x.CommWorld())
						if err != nil {
							t.Error(err)
							return
						}
						Pop[int32](ack)
					}
				}
			})
			var got []int32
			c.OnRank(1, "rx", func(x *Ctx) {
				for msg := 0; msg < 2; msg++ {
					ch, err := x.OpenRecvChannel(n, Int, 0, 0, x.CommWorld())
					if err != nil {
						t.Error(err)
						return
					}
					for i := 0; i < n; i++ {
						got = append(got, Pop[int32](ch))
					}
					if probe && msg == 0 {
						pch, err := x.OpenRecvChannel(1, Int, 0, 1, x.CommWorld())
						if err != nil {
							t.Error(err)
							return
						}
						if v := Pop[int32](pch); v != -1 {
							t.Errorf("probe carried %d", v)
						}
						ack, err := x.OpenSendChannel(1, Int, 0, 1, x.CommWorld())
						if err != nil {
							t.Error(err)
							return
						}
						Push(ack, int32(-2))
					}
				}
			})
			st, err := c.Run()
			if err != nil {
				t.Fatalf("%s/%s: %v", mode, s.name, err)
			}
			checkStream(t, got, 2*n)
			if st.Failovers != 1 || st.RescuedPackets == 0 || st.ClusterFailed || st.PacketsDropped != 0 {
				t.Fatalf("%s/%s: want one clean failover with a rescued probe: %+v", mode, s.name, st)
			}
			if i == 0 {
				ref = st
			} else if st.Cycles != ref.Cycles || st.FailoverCycles != ref.FailoverCycles || st.PacketsDelivered != ref.PacketsDelivered {
				t.Errorf("%s/%s: cycles %d failover %d delivered %d, dense %d/%d/%d", mode, s.name,
					st.Cycles, st.FailoverCycles, st.PacketsDelivered, ref.Cycles, ref.FailoverCycles, ref.PacketsDelivered)
			}
		}
	}
}
