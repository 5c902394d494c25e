package bench

import (
	"fmt"

	"repro/internal/apps"
	smi "repro/internal/core"
	"repro/internal/fault"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/transport"
)

func init() {
	register("ablate-faults", "Fault injection: retransmission cost and route failover", ablateFaults)
}

// ablateFaults quantifies what the reliability extension costs and what
// it buys. Three scenarios share the table: a point-to-point stream
// under increasing packet-drop probability (the go-back-N retransmission
// cost paid in real wire cycles), an 8-rank Bcast across a scripted link
// flap, and a verified stencil surviving a permanent cable death through
// route regeneration. The drop=0 row is the timing-transparency claim:
// the protocol's acks ride the inter-frame gap, so cycle counts match
// the pristine links exactly.
//
// -shards runs the multi-rank scenarios on shard-adaptive with that many
// workers: the reliable links split into per-engine tx/rx halves, and
// the experiment fails loudly if a run reports fewer worker slots than
// requested (never a silent fallback to one engine). Scheduler parity
// keeps every cycle count — including the timing-transparency check —
// identical.
func ablateFaults(opts Options) (*Report, error) {
	bus, err := topology.Bus(2)
	if err != nil {
		return nil, err
	}
	torus, err := topology.Torus2D(2, 4)
	if err != nil {
		return nil, err
	}
	elems := 100_000
	bcastElems := 4000
	stencilN := 32
	// -shards: run the 8-rank scenarios on the parallel scheduler.
	// shardedStats verifies the simulator honored the request instead of
	// silently falling back to a single engine.
	shards := opts.Shards
	sched := sim.SchedEvent
	if shards > 1 {
		sched = sim.SchedShardAdaptive
	}
	shardedStats := func(label string, st smi.Stats) error {
		if shards > 1 && (st.Sched.Shards != shards || st.Sched.Syncs == 0) {
			return fmt.Errorf("ablate-faults: %s ran %d shards with %d syncs, asked for %d — reliable cluster fell back to a single engine",
				label, st.Sched.Shards, st.Sched.Syncs, shards)
		}
		return nil
	}
	r := &Report{
		ID:     "ablate-faults",
		Title:  "Reliability under injected faults (seeded, replayable schedules)",
		Header: []string{"scenario", "cycles", "delivered", "retransmits", "crc err", "lost on wire", "failovers", "rescued"},
		Notes: []string{
			"drop=0 matches the pristine baseline cycle for cycle: acks piggyback on reverse",
			"data and pure control frames only use idle wire slots, so an idle fault layer is",
			"timing-transparent; under loss the go-back-N recovery cost is paid in real wire",
			"cycles; a killed cable triggers route regeneration (up*/down* on the surviving",
			"wiring, CDG-verified) and a control-plane rescue of the unacknowledged packets",
		},
	}
	row := func(label string, cycles int64, net smi.Stats) {
		r.Rows = append(r.Rows, []string{
			label, fmt.Sprint(cycles), fmt.Sprint(net.PacketsDelivered),
			fmt.Sprint(net.Retransmits), fmt.Sprint(net.CrcErrors),
			fmt.Sprint(net.FaultsInjected.Dropped + net.FaultsInjected.FlapLost),
			fmt.Sprint(net.Failovers), fmt.Sprint(net.RescuedPackets),
		})
	}

	// Point-to-point stream vs drop probability.
	base, err := apps.Bandwidth(apps.NetConfig{Topology: bus, Transport: transport.DefaultConfig()}, 0, 1, elems)
	if err != nil {
		return nil, err
	}
	row("p2p pristine links", base.Cycles, base.Net)
	for _, p := range []float64{0, 1e-4, 1e-3, 1e-2} {
		bw, err := apps.Bandwidth(apps.NetConfig{
			Topology: bus, Transport: transport.DefaultConfig(),
			Faults: &fault.Spec{Seed: 1, DropProb: p},
		}, 0, 1, elems)
		if err != nil {
			return nil, fmt.Errorf("drop=%g: %w", p, err)
		}
		row(fmt.Sprintf("p2p drop=%g", p), bw.Cycles, bw.Net)
		r.metric(fmt.Sprintf("p2p_cycles_drop%g", p), float64(bw.Cycles))
		if p == 0 && bw.Cycles != base.Cycles {
			return nil, fmt.Errorf("ablate-faults: drop=0 run took %d cycles, pristine %d — reliability layer is not timing-transparent",
				bw.Cycles, base.Cycles)
		}
	}

	// 8-rank Bcast across a transient link flap.
	bc0, err := apps.BcastTime(apps.NetConfig{Topology: torus, Transport: transport.DefaultConfig(), RoutingPolicy: routing.UpDown}, 8, bcastElems)
	if err != nil {
		return nil, err
	}
	row("bcast-8 pristine links", bc0.Cycles, bc0.Net)
	flap := &fault.Spec{Events: []fault.Event{
		{Link: linkName(torus, 0, 1), Kind: fault.Flap, At: 500, Until: 1100},
	}}
	bc1, err := apps.BcastTime(apps.NetConfig{
		Topology: torus, Transport: transport.DefaultConfig(), RoutingPolicy: routing.UpDown, Faults: flap,
		Scheduler: sched, Shards: shards,
	}, 8, bcastElems)
	if err != nil {
		return nil, fmt.Errorf("bcast under flap: %w", err)
	}
	if err := shardedStats("bcast under flap", bc1.Net); err != nil {
		return nil, err
	}
	row("bcast-8 flap@500-1100", bc1.Cycles, bc1.Net)
	r.metric("bcast_flap_extra_cycles", float64(bc1.Cycles-bc0.Cycles))

	// Verified stencil across a permanent cable death.
	st0, err := apps.Stencil(apps.StencilConfig{
		N: stencilN, Timesteps: 8, RanksX: 2, RanksY: 4,
		Topology: torus, RoutingPolicy: routing.UpDown,
	})
	if err != nil {
		return nil, err
	}
	row("stencil-8 pristine links", st0.Cycles, st0.Net)
	kill := &fault.Spec{Events: []fault.Event{
		{Link: linkName(torus, 0, 1), Kind: fault.Kill, At: 1500},
	}}
	st1, err := apps.Stencil(apps.StencilConfig{
		N: stencilN, Timesteps: 8, RanksX: 2, RanksY: 4, Verify: true,
		Topology: torus, RoutingPolicy: routing.UpDown, Faults: kill,
		Scheduler: sched, Shards: shards,
	})
	if err != nil {
		return nil, fmt.Errorf("stencil under kill: %w", err)
	}
	if err := shardedStats("stencil under kill", st1.Net); err != nil {
		return nil, err
	}
	want := apps.StencilReference(stencilN, 8)
	for i := range want {
		for j := range want[i] {
			if st1.Grid[i][j] != want[i][j] {
				return nil, fmt.Errorf("ablate-faults: stencil grid diverged at [%d][%d] after failover", i, j)
			}
		}
	}
	row("stencil-8 cable kill@1500", st1.Cycles, st1.Net)
	r.metric("failover_cycles", float64(st1.Net.FailoverCycles))
	r.metric("rescued_packets", float64(st1.Net.RescuedPackets))
	r.Notes = append(r.Notes,
		fmt.Sprintf("the killed-cable stencil still matches the sequential reference bit for bit; "+
			"detection+repair+rescue took %d cycles", st1.Net.FailoverCycles))
	return r, nil
}

// linkName formats the injector's name for the directed link a -> b,
// failing loudly if the topology has no such cable.
func linkName(topo *topology.Topology, a, b int) string {
	for _, conn := range topo.Connections {
		if conn.A.Device == a && conn.B.Device == b {
			return fmt.Sprintf("%s->%s", conn.A, conn.B)
		}
		if conn.A.Device == b && conn.B.Device == a {
			return fmt.Sprintf("%s->%s", conn.B, conn.A)
		}
	}
	panic(fmt.Sprintf("bench: no cable between %d and %d", a, b))
}
