package bench

import (
	"fmt"

	"repro/internal/workload"
)

func init() {
	registerJSON("workloads", "BENCH_workloads.json", "Registry sweep: every registered workload once, emitting smid's Result schema", workloadSweep)
}

// workloadSweep runs every registered workload once at its default
// problem size and reports the normalized workload.Result documents —
// byte-for-byte the schema smid serves for a job, so `smibench -json
// workloads` output is directly diffable against `GET /v1/jobs/{id}`
// results.
func workloadSweep(opts Options) (*Report, error) {
	ranks := 8
	if len(opts.Ranks) > 0 {
		ranks = opts.Ranks[0]
	}
	names := workload.Names()
	if opts.Workload != "" {
		names = []string{opts.Workload}
	}

	r := &Report{
		ID:     "workloads",
		Title:  fmt.Sprintf("Registered workloads at %d ranks (default sizes)", ranks),
		Header: []string{"workload", "ranks", "size", "cycles", "us", "digest"},
		Notes: []string{
			"rows are workload.Result documents — the same schema smid serves per job;",
			"digests are deterministic: rerunning this sweep must reproduce them exactly",
		},
	}
	var results []workload.Result
	for _, name := range names {
		res, err := workload.Run(name, workload.Params{Ranks: ranks, Verify: true})
		if err != nil {
			return nil, fmt.Errorf("workloads %s: %w", name, err)
		}
		results = append(results, res)
		r.Rows = append(r.Rows, []string{
			res.Workload, fmt.Sprintf("%d", res.Ranks), fmt.Sprintf("%d", res.Size),
			fmt.Sprintf("%d", res.Cycles), f1(res.Micros), res.OutputDigest,
		})
		r.metric(name+"_cycles", float64(res.Cycles))
	}
	var err error
	r.JSON, err = marshalDoc(results)
	return r, err
}
