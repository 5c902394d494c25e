package workload

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/packet"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topology"
)

func TestRegistryNames(t *testing.T) {
	want := []string{"bandwidth", "bcast", "incast", "pingpong", "reduce", "stencil", "summa"}
	got := Names()
	if len(got) != len(want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Names() = %v, want %v", got, want)
		}
	}
	if _, err := Get("nope"); err == nil {
		t.Fatal("Get(nope) succeeded")
	}
}

func TestGrid(t *testing.T) {
	cases := map[int][2]int{
		1: {1, 1}, 2: {1, 2}, 4: {2, 2}, 6: {2, 3}, 8: {2, 4},
		16: {4, 4}, 32: {4, 8}, 64: {8, 8}, 7: {1, 7},
	}
	for ranks, want := range cases {
		rows, cols := Grid(ranks)
		if rows != want[0] || cols != want[1] {
			t.Errorf("Grid(%d) = %d×%d, want %d×%d", ranks, rows, cols, want[0], want[1])
		}
	}
}

func TestRunDefaultsAndDeterminism(t *testing.T) {
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			p := Params{Ranks: 4, Verify: true, Size: quickTestSize(name)}
			a, err := Run(name, p)
			if err != nil {
				t.Fatalf("Run(%s): %v", name, err)
			}
			if a.Cycles <= 0 {
				t.Fatalf("Run(%s): cycles = %d", name, a.Cycles)
			}
			if a.OutputDigest == "" {
				t.Fatalf("Run(%s): empty output digest", name)
			}
			b, err := Run(name, p)
			if err != nil {
				t.Fatalf("Run(%s) again: %v", name, err)
			}
			if a.OutputDigest != b.OutputDigest || a.Cycles != b.Cycles {
				t.Fatalf("Run(%s) not deterministic: (%d, %s) vs (%d, %s)",
					name, a.Cycles, a.OutputDigest, b.Cycles, b.OutputDigest)
			}
		})
	}
}

func quickTestSize(name string) int {
	switch name {
	case "bandwidth":
		return 1024
	case "pingpong":
		return 8
	case "bcast", "reduce":
		return 256
	case "incast":
		return 512
	case "stencil", "summa":
		return 8
	default:
		return 0
	}
}

// Every registered workload hands back the cluster's execution record:
// the scheduler it reports is the one requested (never a silent
// fallback), and its cycle count is the result's. Scheduling changes
// neither cycles nor digest.
func TestEveryWorkloadReportsStats(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			var results []Result
			for _, sched := range []sim.SchedulerKind{sim.SchedEvent, sim.SchedShardAdaptive} {
				p := Params{Ranks: 4, Size: quickTestSize(name), Scheduler: sched}
				if sched == sim.SchedShardAdaptive {
					p.Shards = 2
				}
				res, err := Run(name, p)
				if err != nil {
					t.Fatalf("%s: %v", sched, err)
				}
				if got := res.Stats.Sched.Scheduler; got != sched.String() {
					t.Errorf("%s: stats report scheduler %q", sched, got)
				}
				if res.Stats.Cycles != res.Cycles || res.Cycles <= 0 {
					t.Errorf("%s: stats report %d cycles, the result %d", sched, res.Stats.Cycles, res.Cycles)
				}
				results = append(results, res)
			}
			if a, b := results[0], results[1]; a.Cycles != b.Cycles || a.OutputDigest != b.OutputDigest {
				t.Errorf("event (%d, %s) and shard-adaptive (%d, %s) disagree", a.Cycles, a.OutputDigest, b.Cycles, b.OutputDigest)
			}
		})
	}
}

func TestRunGuards(t *testing.T) {
	if _, err := Run("bandwidth", Params{Ranks: 1}); err == nil {
		t.Fatal("bandwidth at 1 rank succeeded, want MinRanks error")
	}
	// summa registers SupportsFaults=false: a live fault spec must be
	// rejected, a zero one tolerated.
	faulty := &fault.Spec{DropProb: 0.1, Seed: 1}
	if _, err := Run("summa", Params{Ranks: 2, Size: 8, Faults: faulty}); err == nil {
		t.Fatal("summa with faults succeeded, want unsupported error")
	}
	routes := &routing.Routes{}
	if _, err := Run("summa", Params{Ranks: 2, Size: 8, Routes: routes}); err == nil {
		t.Fatal("summa with precomputed routes succeeded, want unsupported error")
	}
}

func TestRunModeKnobs(t *testing.T) {
	// The bandwidth workload honors the transfer-mode knobs: a 4096-int
	// message over a 64-element buffer is the large-message regime, so
	// streaming must cut fragments and beat the credited packet path.
	base := Params{Ranks: 4, Size: 4096, BufferElems: 64}
	byMode := map[string]Result{}
	for _, mode := range []string{"credited", "circuit", "streaming"} {
		p := base
		p.Mode = mode
		res, err := Run("bandwidth", p)
		if err != nil {
			t.Fatalf("bandwidth mode %s: %v", mode, err)
		}
		byMode[mode] = res
		again, err := Run("bandwidth", p)
		if err != nil {
			t.Fatalf("bandwidth mode %s again: %v", mode, err)
		}
		if res.OutputDigest != again.OutputDigest || res.Cycles != again.Cycles {
			t.Fatalf("mode %s not deterministic", mode)
		}
	}
	if s, c := byMode["streaming"], byMode["credited"]; 2*s.Cycles > c.Cycles {
		t.Errorf("streaming (%d cycles) should beat credited (%d) at least 2x", s.Cycles, c.Cycles)
	}
	if frags := byMode["streaming"].Metrics["stream_fragments"]; frags == 0 {
		t.Error("streaming run reported no stream fragments")
	}

	// Typed validation: bad combinations are rejected before any run.
	for name, p := range map[string]Params{
		"unknown mode":              {Ranks: 4, Size: 64, Mode: "teleport"},
		"batch without streaming":   {Ranks: 4, Size: 64, Mode: "circuit", StreamBatch: 8},
		"negative buffer":           {Ranks: 4, Size: 64, Mode: "streaming", BufferElems: -1},
		"oversized batch":           {Ranks: 4, Size: 64, Mode: "streaming", StreamBatch: 1 << 20},
		"mode on mode-less summa":   {Ranks: 4, Size: 8, Mode: "streaming"},
		"buffer on mode-less summa": {Ranks: 4, Size: 8, BufferElems: 64},
	} {
		wl := "bandwidth"
		if name == "mode on mode-less summa" || name == "buffer on mode-less summa" {
			wl = "summa"
		}
		if _, err := Run(wl, p); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestStreamBatchUpperBound runs the largest stream_batch Validate
// accepts against a message long enough to fill such a fragment: 65536
// words did not fit the fragment header's former 16-bit Words field, so
// the receiver saw Words 0 and the job died on a protocol panic.
func TestStreamBatchUpperBound(t *testing.T) {
	const size = 600_000 // 75000 raw words: one full fragment and a tail
	res, err := Run("bandwidth", Params{Ranks: 2, Size: size, Mode: "streaming", StreamBatch: packet.MaxStreamWords})
	if err != nil {
		t.Fatalf("stream_batch %d: %v", packet.MaxStreamWords, err)
	}
	// Two fragments, each cut through four kernels (two CKS on the
	// sender, two CKR on the receiver).
	if frags := res.Metrics["stream_fragments"]; frags != 8 {
		t.Errorf("stream_fragments = %v, want 8", frags)
	}
	if _, err := Run("bandwidth", Params{Ranks: 2, Size: size, Mode: "streaming", StreamBatch: packet.MaxStreamWords + 1}); err == nil {
		t.Error("a stream_batch one past the bound was accepted")
	}
}

func TestRunTransportKnobs(t *testing.T) {
	// Incast defaults to credited transfers (eager incast deadlocks on
	// sequential drain) and is deterministic.
	base := Params{Ranks: 4, Size: 2000}
	res, err := Run("incast", base)
	if err != nil {
		t.Fatalf("default incast: %v", err)
	}
	again, err := Run("incast", base)
	if err != nil {
		t.Fatal(err)
	}
	if again.OutputDigest != res.OutputDigest || again.Cycles != res.Cycles {
		t.Fatal("incast not deterministic")
	}

	// The arbiter knob is accepted everywhere and changes timing only.
	arb := base
	arb.Arbiter = "skip-idle"
	if _, err := Run("incast", arb); err != nil {
		t.Fatalf("skip-idle incast: %v", err)
	}

	// Typed validation: a bad arbiter fails loudly.
	if _, err := Run("incast", Params{Ranks: 4, Size: 64, Arbiter: "lru"}); err == nil {
		t.Error("unknown arbiter: accepted")
	}
}

// Every workload reaches its cluster with the arbiter it was given: at
// 4 ranks and default size the skip-idle arbiter moves every workload's
// cycle count. A workload that builds its cluster without the knob
// would silently measure round-robin polling.
func TestArbiterReachesEveryWorkload(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			def, err := Run(name, Params{Ranks: 4})
			if err != nil {
				t.Fatal(err)
			}
			skip, err := Run(name, Params{Ranks: 4, Arbiter: "skip-idle"})
			if err != nil {
				t.Fatal(err)
			}
			if skip.Cycles == def.Cycles {
				t.Errorf("skip-idle and round-robin both took %d cycles: the arbiter was ignored", def.Cycles)
			}
		})
	}
}

func TestRunWithPrecomputedRoutes(t *testing.T) {
	topo, err := topology.Torus2D(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	routes, err := routing.Compute(topo, routing.ShortestPath)
	if err != nil {
		t.Fatal(err)
	}
	base := Params{Ranks: 4, Size: 512, Topology: topo}
	plain, err := Run("bcast", base)
	if err != nil {
		t.Fatal(err)
	}
	withRoutes := base
	withRoutes.Routes = routes
	cached, err := Run("bcast", withRoutes)
	if err != nil {
		t.Fatal(err)
	}
	if plain.OutputDigest != cached.OutputDigest || plain.Cycles != cached.Cycles {
		t.Fatalf("precomputed routes changed the run: (%d, %s) vs (%d, %s)",
			plain.Cycles, plain.OutputDigest, cached.Cycles, cached.OutputDigest)
	}
}

func TestDefaultTopology(t *testing.T) {
	if _, err := DefaultTopology(1); err == nil {
		t.Fatal("DefaultTopology(1) succeeded")
	}
	topo, err := DefaultTopology(16)
	if err != nil {
		t.Fatal(err)
	}
	if topo.Devices != 16 {
		t.Fatalf("DefaultTopology(16).Devices = %d", topo.Devices)
	}
	bus, err := DefaultTopology(3)
	if err != nil {
		t.Fatal(err)
	}
	if bus.Devices != 3 {
		t.Fatalf("DefaultTopology(3).Devices = %d", bus.Devices)
	}
}
