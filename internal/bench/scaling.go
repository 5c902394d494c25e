package bench

import (
	"fmt"

	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/workload"
)

func init() {
	registerJSON("scaling", "BENCH_scaling.json",
		"Scheduler parity and effort: dense scan vs event scheduler vs shard-adaptive parallel (8..1024 ranks via -ranks)", scaling)
}

// scalingRanks are the supported sweep points; workload.Grid decomposes
// each into the same 2D torus the sweep has always used. The dense
// reference scan is only run up to denseRankLimit — its per-cycle
// full-component sweep makes the big points prohibitively slow, and the
// event scheduler (verified against dense at every small point) serves
// as the reference beyond it.
var scalingRanks = map[int]bool{8: true, 16: true, 32: true, 64: true, 256: true, 1024: true}

const denseRankLimit = 64

// ScalingRow is one (workload, ranks, scheduler) run: the cycle it
// finished on and what the scheduler did to get there. Every field is a
// simulator counter — identical on any host and at any GOMAXPROCS (what
// a run costs in wall-clock is `go run ./benchmark`'s business).
type ScalingRow struct {
	Workload  string `json:"workload"`
	Ranks     int    `json:"ranks"`
	Scheduler string `json:"scheduler"`
	Shards    int    `json:"shards"`
	Syncs     int64  `json:"syncs,omitempty"`
	// Windows and Steals are the adaptive scheduler's effort counters:
	// per-boundary lookahead windows opened, and ranks moved between
	// worker slots by the deterministic rebalance rule.
	Windows int64 `json:"windows,omitempty"`
	Steals  int64 `json:"steals,omitempty"`
	// PerShard carries each worker slot's effort counters (including its
	// sync count) for parallel rows — the load-balance signal.
	PerShard       []sim.ShardEffort `json:"per_shard,omitempty"`
	Cycles         int64             `json:"cycles"`
	CyclesExecuted int64             `json:"cycles_executed"`
	CyclesSkipped  int64             `json:"cycles_skipped"`
	KernelTicks    int64             `json:"kernel_ticks"`
}

// scalingJSON is the BENCH_scaling.json document: every row of the sweep.
type scalingJSON struct {
	Description string       `json:"description"`
	Rows        []ScalingRow `json:"rows"`
}

// scalingRun executes one workload at one rank count under one
// scheduler. Dispatch goes through the workload registry — the same
// resolution path smid uses — with the registry defaults reproducing
// the sweep's historical problem sizes.
func scalingRun(name string, ranks int, kind sim.SchedulerKind, shards int) (ScalingRow, error) {
	row := ScalingRow{Workload: name, Ranks: ranks, Scheduler: kind.String(), Shards: shards}
	params := workload.Params{Ranks: ranks, Scheduler: kind}
	if shards > 1 {
		params.Shards = shards
	}
	if name == "bcast" {
		params.RoutingPolicy = routing.UpDown
	}
	res, err := workload.Run(name, params)
	if err != nil {
		return row, fmt.Errorf("scaling %s/%d %s: %w", name, ranks, kind, err)
	}
	sched := res.Stats.Sched
	row.Syncs = sched.Syncs
	row.Windows = sched.Windows
	row.Steals = sched.Steals
	row.PerShard = sched.PerShard
	row.Cycles = res.Cycles
	row.CyclesExecuted = sched.CyclesExecuted
	row.CyclesSkipped = sched.CyclesSkipped
	row.KernelTicks = sched.KernelTicks
	return row, nil
}

// scaling sweeps stencil and broadcast over rank counts, running each
// point under the event scheduler and the shard-adaptive parallel
// scheduler, plus the dense reference scan at the small points. Every
// scheduler must finish every run on the identical cycle — the sweep
// fails on any divergence — and the rows record the effort each one
// spent (cycles executed vs skipped, kernel ticks, windows, steals).
func scaling(opts Options) (*Report, error) {
	rankSet := opts.Ranks
	if len(rankSet) == 0 {
		rankSet = []int{8, 64}
	}
	shards := opts.Shards
	if shards <= 0 {
		shards = 4
	}
	workloads := []string{"stencil", "bcast"}
	if opts.Workload != "" {
		workloads = []string{opts.Workload}
	}

	r := &Report{
		ID:     "scaling",
		Title:  "Scheduler parity and effort: dense scan vs event scheduler vs shard-adaptive parallel",
		Header: []string{"workload", "ranks", "cycles", "skipped%", "dense ticks", "event ticks", "shards", "syncs", "windows", "steals"},
		Notes: []string{
			"all schedulers must (and do) finish every run on the identical cycle;",
			"'skipped%' is the share of simulated cycles the event scheduler fast-forwarded;",
			"'ticks' are kernel ticks executed (dense rows stop at 64 ranks: the reference",
			"scan is too slow beyond); syncs/windows/steals are the shard-adaptive run's;",
			"every column is a simulator counter — wall-clock lives in `go run ./benchmark`",
		},
	}
	doc := scalingJSON{
		Description: "smibench scaling: identical workloads under the dense reference scan, the event scheduler, and the shard-adaptive parallel scheduler (per-boundary lookahead with work stealing); every value is a deterministic simulator counter",
	}
	for _, w := range workloads {
		for _, ranks := range rankSet {
			if !scalingRanks[ranks] {
				return nil, fmt.Errorf("scaling: unsupported rank count %d (have 8, 16, 32, 64, 256, 1024)", ranks)
			}
			event, err := scalingRun(w, ranks, sim.SchedEvent, 1)
			if err != nil {
				return nil, err
			}
			denseTicks := "-"
			if ranks <= denseRankLimit {
				dense, err := scalingRun(w, ranks, sim.SchedDense, 1)
				if err != nil {
					return nil, err
				}
				if dense.Cycles != event.Cycles {
					return nil, fmt.Errorf("scaling %s/%d: dense finished at cycle %d, event at %d — scheduler parity broken",
						w, ranks, dense.Cycles, event.Cycles)
				}
				denseTicks = fmt.Sprint(dense.KernelTicks)
				doc.Rows = append(doc.Rows, dense)
			}
			doc.Rows = append(doc.Rows, event)

			adaptive, err := scalingRun(w, ranks, sim.SchedShardAdaptive, min(shards, ranks))
			if err != nil {
				return nil, err
			}
			if adaptive.Cycles != event.Cycles {
				return nil, fmt.Errorf("scaling %s/%d: adaptive finished at cycle %d, event at %d — scheduler parity broken",
					w, ranks, adaptive.Cycles, event.Cycles)
			}
			doc.Rows = append(doc.Rows, adaptive)

			skipped := 100 * float64(event.CyclesSkipped) / float64(event.Cycles)
			r.Rows = append(r.Rows, []string{
				w, fmt.Sprint(ranks), fmt.Sprint(event.Cycles), f1(skipped),
				denseTicks, fmt.Sprint(event.KernelTicks),
				fmt.Sprint(adaptive.Shards), fmt.Sprint(adaptive.Syncs),
				fmt.Sprint(adaptive.Windows), fmt.Sprint(adaptive.Steals),
			})
			r.metric(fmt.Sprintf("%s_%dranks_skipped_pct", w, ranks), skipped)
		}
	}
	var err error
	r.JSON, err = marshalDoc(&doc)
	return r, err
}
