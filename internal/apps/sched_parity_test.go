package apps

import (
	"os"
	"testing"

	smi "repro/internal/core"
	"repro/internal/fault"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topology"
)

// schedVariants is the scheduler matrix every parity workload runs
// under: the dense reference scan (the oracle), the activity-set event
// scheduler, and the shard-adaptive parallel scheduler (one engine per
// rank, 4 worker slots, deterministic stealing). All three must be
// bit-identical in cycle counts and outputs.
var schedVariants = []struct {
	name   string
	kind   sim.SchedulerKind
	shards int
}{
	{"dense", sim.SchedDense, 0},
	{"event", sim.SchedEvent, 0},
	{"shard-adaptive", sim.SchedShardAdaptive, 4},
}

// adaptiveVariant indexes the shard-adaptive row of schedVariants.
const adaptiveVariant = 2

// TestSchedulerParity is the scheduler acceptance gate: every workload
// must finish at the identical cycle under the dense reference scan, the
// activity-set scheduler, and the parallel scheduler, with bit-identical
// outputs where the workload produces data. The event runs must also
// actually skip cycles, and the parallel runs must actually run on
// per-rank engines (workers recorded, barriers counted) — schedulers that
// degenerate to dense would pass the equality checks while delivering
// none of the speedup.
func TestSchedulerParity(t *testing.T) {
	topo, err := topology.Torus2D(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	base := NetConfig{Topology: topo, RoutingPolicy: routing.UpDown}

	t.Run("ping-pong", func(t *testing.T) {
		for _, variant := range []struct {
			name string
			mod  func(*NetConfig)
		}{
			{"pristine", func(*NetConfig) {}},
			{"reliable", func(c *NetConfig) { c.Reliable = true }},
			{"faulty", func(c *NetConfig) {
				c.Faults = &fault.Spec{Seed: 11, DropProb: 0.002}
			}},
		} {
			cycles := make([]int64, len(schedVariants))
			for i, sv := range schedVariants {
				cfg := base
				variant.mod(&cfg)
				cfg.Scheduler, cfg.Shards = sv.kind, sv.shards
				res, err := PingPong(cfg, 0, 1, 50)
				if err != nil {
					t.Fatalf("%s %s: %v", variant.name, sv.name, err)
				}
				cycles[i] = res.Cycles
			}
			for i := 1; i < len(cycles); i++ {
				if cycles[i] != cycles[0] {
					t.Errorf("%s: %s finished at cycle %d, %s at %d",
						variant.name, schedVariants[i].name, cycles[i], schedVariants[0].name, cycles[0])
				}
			}
		}
	})

	t.Run("bandwidth", func(t *testing.T) {
		results := make([]BandwidthResult, len(schedVariants))
		for i, sv := range schedVariants {
			cfg := base
			cfg.Scheduler, cfg.Shards = sv.kind, sv.shards
			res, err := Bandwidth(cfg, 0, 5, 20000)
			if err != nil {
				t.Fatalf("%s: %v", sv.name, err)
			}
			results[i] = res
		}
		for i := 1; i < len(results); i++ {
			if results[i].Cycles != results[0].Cycles {
				t.Errorf("%s finished at cycle %d, dense at %d", schedVariants[i].name, results[i].Cycles, results[0].Cycles)
			}
		}
		for i, sv := range schedVariants {
			if got := results[i].Net.Sched.Scheduler; got != sv.name {
				t.Errorf("scheduler label %d: %q, want %q", i, got, sv.name)
			}
		}
		// The adaptive run reports one row per worker slot and counts the
		// per-engine windows it executed.
		if sh := results[adaptiveVariant].Net.Sched; sh.Shards != 4 || sh.Syncs == 0 || len(sh.PerShard) != 4 || sh.Windows == 0 {
			t.Errorf("adaptive run did not run sharded: shards=%d syncs=%d pershard=%d windows=%d",
				sh.Shards, sh.Syncs, len(sh.PerShard), sh.Windows)
		}
	})

	t.Run("bandwidth-modes", func(t *testing.T) {
		// Every P2P transfer machinery — credited flow control, circuit
		// switching, and the streaming rendezvous path — must be
		// bit-identical across schedulers, pristine and under fault
		// injection (where raw words cross the reliable layer's frame
		// sideband). 500 ints over a 64-element buffer forces credit
		// round-trips and the streaming rendezvous alike.
		for _, mode := range []smi.Mode{smi.ModeCredited, smi.ModeCircuit, smi.ModeStreaming} {
			for _, variant := range []struct {
				name string
				mod  func(*NetConfig)
			}{
				{"pristine", func(*NetConfig) {}},
				{"faulty", func(c *NetConfig) {
					c.Faults = &fault.Spec{Seed: 11, DropProb: 0.002}
				}},
			} {
				results := make([]BandwidthResult, len(schedVariants))
				for i, sv := range schedVariants {
					cfg := base
					variant.mod(&cfg)
					cfg.Scheduler, cfg.Shards = sv.kind, sv.shards
					cfg.Mode, cfg.BufferElems = mode, 64
					res, err := Bandwidth(cfg, 0, 5, 500)
					if err != nil {
						t.Fatalf("%s %s %s: %v", mode, variant.name, sv.name, err)
					}
					results[i] = res
				}
				for i := 1; i < len(results); i++ {
					if results[i].Cycles != results[0].Cycles {
						t.Errorf("%s %s: %s finished at cycle %d, dense at %d",
							mode, variant.name, schedVariants[i].name, results[i].Cycles, results[0].Cycles)
					}
					if results[i].Net.PacketsDelivered != results[0].Net.PacketsDelivered {
						t.Errorf("%s %s: %s delivered %d packets, dense %d",
							mode, variant.name, schedVariants[i].name, results[i].Net.PacketsDelivered, results[0].Net.PacketsDelivered)
					}
				}
				if mode == smi.ModeStreaming && results[0].Net.StreamFragments == 0 {
					t.Errorf("%s: streaming run cut no fragments through the transport", variant.name)
				}
				if variant.name == "faulty" {
					// Fault-injected clusters must actually run on
					// per-rank engines, never fall back to one.
					if sh := results[adaptiveVariant].Net.Sched; sh.Shards != 4 || sh.Syncs == 0 {
						t.Errorf("%s %s: reliable cluster fell back to one engine: shards=%d syncs=%d",
							mode, schedVariants[adaptiveVariant].name, sh.Shards, sh.Syncs)
					}
				}
			}
		}
	})

	t.Run("bcast", func(t *testing.T) {
		results := make([]CollectiveResult, len(schedVariants))
		for i, sv := range schedVariants {
			cfg := base
			cfg.Scheduler, cfg.Shards = sv.kind, sv.shards
			res, err := BcastTime(cfg, 8, 2000)
			if err != nil {
				t.Fatalf("%s: %v", sv.name, err)
			}
			results[i] = res
		}
		for i := 1; i < len(results); i++ {
			if results[i].Cycles != results[0].Cycles {
				t.Errorf("%s finished at cycle %d, dense at %d", schedVariants[i].name, results[i].Cycles, results[0].Cycles)
			}
			if results[i].Net.PacketsDelivered != results[0].Net.PacketsDelivered {
				t.Errorf("%s delivered %d packets, dense %d",
					schedVariants[i].name, results[i].Net.PacketsDelivered, results[0].Net.PacketsDelivered)
			}
		}
		if results[1].Net.Sched.CyclesSkipped == 0 {
			t.Error("event run skipped no cycles: the activity sets never fast-forwarded")
		}
	})

	t.Run("summa", func(t *testing.T) {
		results := make([]SummaResult, len(schedVariants))
		for i, sv := range schedVariants {
			res, err := Summa(SummaConfig{
				N: 32, Ranks: 8, Verify: true,
				Scheduler: sv.kind, Shards: sv.shards,
			})
			if err != nil {
				t.Fatalf("%s: %v", sv.name, err)
			}
			results[i] = res
		}
		ref := SummaReference(32)
		for i, res := range results {
			if res.Cycles != results[0].Cycles {
				t.Errorf("%s finished at cycle %d, dense at %d", schedVariants[i].name, res.Cycles, results[0].Cycles)
			}
			for r := range ref {
				for c := range ref[r] {
					if res.C[r][c] != ref[r][c] {
						t.Fatalf("%s C[%d][%d] = %v, reference %v", schedVariants[i].name, r, c, res.C[r][c], ref[r][c])
					}
				}
			}
		}
	})

	t.Run("stencil", func(t *testing.T) {
		ref := StencilReference(24, 4)
		for _, faults := range []*fault.Spec{
			nil,
			// The fault-injected leg of the matrix: drops force the
			// retransmission protocol to do real repair work, and all
			// three schedulers must still produce the reference grid at
			// the same cycle.
			{Seed: 7, DropProb: 0.001},
		} {
			label := "pristine"
			if faults != nil {
				label = "faulty"
			}
			results := make([]StencilResult, len(schedVariants))
			for i, sv := range schedVariants {
				cfg := StencilConfig{
					N: 24, Timesteps: 4, RanksX: 2, RanksY: 4, Verify: true,
					Faults: faults, Scheduler: sv.kind, Shards: sv.shards,
				}
				res, err := Stencil(cfg)
				if err != nil {
					t.Fatalf("%s %s: %v", label, sv.name, err)
				}
				results[i] = res
			}
			for i, res := range results {
				if res.Cycles != results[0].Cycles {
					t.Errorf("%s: %s finished at cycle %d, dense at %d",
						label, schedVariants[i].name, res.Cycles, results[0].Cycles)
				}
				for r := range ref {
					for c := range ref[r] {
						if res.Grid[r][c] != ref[r][c] {
							t.Fatalf("%s %s grid[%d][%d] = %v, reference %v",
								label, schedVariants[i].name, r, c, res.Grid[r][c], ref[r][c])
						}
					}
				}
			}
		}
	})
}

// TestStealSmoke64 is the CI race-detector gate: a 64-rank torus on 64
// engines (one per rank) multiplexed onto 4 worker slots with
// deterministic work-stealing, under fault injection so the reliable
// links' repair machinery runs while ranks migrate between workers.
// Digest (cycles + delivered packets) must match the dense reference bit
// for bit. Gated behind SMI_SHARD_SMOKE=1 because 64 ranks is slow under
// -race; the parallel-smoke CI job enables it.
func TestStealSmoke64(t *testing.T) {
	if os.Getenv("SMI_SHARD_SMOKE") != "1" {
		t.Skip("set SMI_SHARD_SMOKE=1 to run the 64-rank steal smoke test")
	}
	topo, err := topology.Torus2D(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	base := NetConfig{Topology: topo, RoutingPolicy: routing.UpDown,
		Faults: &fault.Spec{Seed: 11, DropProb: 0.0005}}

	ad := base
	ad.Scheduler, ad.Shards = sim.SchedShardAdaptive, 4
	adaptive, err := BcastTime(ad, 64, 1000)
	if err != nil {
		t.Fatal(err)
	}
	de := base
	de.Scheduler = sim.SchedDense
	dense, err := BcastTime(de, 64, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if dense.Net.Retransmits == 0 {
		t.Error("fault spec injected nothing; the repair machinery never ran")
	}
	if adaptive.Cycles != dense.Cycles {
		t.Errorf("adaptive run finished at cycle %d, dense at %d", adaptive.Cycles, dense.Cycles)
	}
	if adaptive.Net.PacketsDelivered != dense.Net.PacketsDelivered {
		t.Errorf("adaptive run delivered %d packets, dense %d", adaptive.Net.PacketsDelivered, dense.Net.PacketsDelivered)
	}
	st := adaptive.Net.Sched
	if st.Shards != 4 || st.Syncs == 0 {
		t.Errorf("adaptive run did not run in parallel: shards=%d syncs=%d", st.Shards, st.Syncs)
	}
	if st.Windows == 0 {
		t.Errorf("adaptive run executed no windows: %+v", st)
	}
	t.Logf("adaptive 64-rank run: syncs=%d windows=%d steals=%d", st.Syncs, st.Windows, st.Steals)
	if st.Steals == 0 {
		t.Error("64 engines on 4 workers under a broadcast hotspot rebalanced nothing: the stealing rule never fired")
	}
}

// TestAdaptiveHorizonProperty drives the adaptive scheduler across worker
// counts and workload shapes. Safety — no per-engine window ever runs
// past a boundary's advertised safe horizon — is enforced by the flush
// panic in sim.Boundary (an entry published behind the consumer's clock
// crashes the run), so every clean completion doubles as a proof the
// adaptive windows stayed within bounds; the cycle digests must then
// match the dense reference exactly.
func TestAdaptiveHorizonProperty(t *testing.T) {
	topo, err := topology.Torus2D(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, faults := range []*fault.Spec{nil, {Seed: 3, DropProb: 0.002}} {
		base := NetConfig{Topology: topo, RoutingPolicy: routing.UpDown, Faults: faults}
		de := base
		de.Scheduler = sim.SchedDense
		dense, err := Bandwidth(de, 0, 5, 4000)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 3, 4, 5, 8} {
			cfg := base
			cfg.Scheduler, cfg.Shards = sim.SchedShardAdaptive, workers
			res, err := Bandwidth(cfg, 0, 5, 4000)
			if err != nil {
				t.Fatalf("workers=%d faults=%v: %v", workers, faults != nil, err)
			}
			if res.Cycles != dense.Cycles {
				t.Errorf("workers=%d faults=%v: finished at cycle %d, dense at %d",
					workers, faults != nil, res.Cycles, dense.Cycles)
			}
			if res.Net.PacketsDelivered != dense.Net.PacketsDelivered {
				t.Errorf("workers=%d faults=%v: delivered %d packets, dense %d",
					workers, faults != nil, res.Net.PacketsDelivered, dense.Net.PacketsDelivered)
			}
		}
	}
}
