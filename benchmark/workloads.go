package main

import (
	"encoding/json"
	"fmt"
	"regexp"

	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/workload"
)

// This file is the single table the benchmark is built from: every
// workload's inputs, pins and rationale, and every metric's unit,
// direction and bound. BENCHMARK.json is generated from it
// (`go run ./benchmark -manifest`) and the smoke test fails when the
// two drift.

// runSeconds is how long one run measures (BENCHMARK.json run_seconds).
const runSeconds = 10

// libInputs describes one library workload: a workload.Run call with
// pinned simulated results.
type libInputs struct {
	Registry string          // workload registry name
	Topo     topology.Spec   // wiring, rebuilt in every set-up
	Policy   routing.Policy  // route generator
	Params   workload.Params // size knobs, mode, scheduler; Topology/Routes are filled by set-up
	Cycles   int64           // pinned simulated cycles
	Digest   string          // pinned workload.Result.OutputDigest
	// VerifyWarm runs the warm-up rep with Params.Verify (the stencil's
	// sequential reference check); its digest then covers the grid, so
	// only the cycles are compared on that rep.
	VerifyWarm bool
}

// workloadDef is one row of the workload table.
type workloadDef struct {
	Name string
	// Why is the one-line rationale copied into BENCHMARK.json.
	Why string
	// GoMaxProcs is the Go scheduler width the workload runs at. The
	// single-engine workloads pin 1: at the default width the proc
	// goroutine hand-offs bounce between Ps and the same run takes ~2x
	// (see sim.xproc_handoff_ratio).
	GoMaxProcs int
	// Lib is nil for the service workload.
	Lib *libInputs
	// HandoffProbe also times the same inputs at the host's full Go
	// scheduler width in the traced pass (sim.xproc_handoff_ratio).
	HandoffProbe bool
	// SpeedupOver names the workload with the same inputs on the event
	// engine; the traced pass times it too (sim.par_speedup).
	SpeedupOver string
}

var (
	torus64 = topology.Spec{Kind: "torus", Rows: 8, Cols: 8}
	bus8    = topology.Spec{Kind: "bus", Devices: 8}
)

var workloads = []workloadDef{
	{
		Name:         "bcast64-event",
		Why:          "communication-dense collective on 64 ranks: kernel ticks, CK polling and links do nearly all the work (event engine)",
		GoMaxProcs:   1,
		HandoffProbe: true,
		Lib: &libInputs{
			Registry: "bcast", Topo: torus64, Policy: routing.UpDown,
			Params: workload.Params{Ranks: 64, Size: 4096, Scheduler: sim.SchedEvent},
			Cycles: 57254, Digest: "d79f53e5d9fd6afd",
		},
	},
	{
		Name:        "bcast64-par2",
		Why:         "same inputs on shard-adaptive with 2 worker slots on 2 cores: the sim layer used through boundaries, windows and steals",
		GoMaxProcs:  2,
		SpeedupOver: "bcast64-event",
		Lib: &libInputs{
			Registry: "bcast", Topo: torus64, Policy: routing.UpDown,
			Params: workload.Params{Ranks: 64, Size: 4096, Scheduler: sim.SchedShardAdaptive, Shards: 2},
			Cycles: 57254, Digest: "d79f53e5d9fd6afd",
		},
	},
	{
		Name:       "stencil64-event",
		Why:        "paper 5.4.2 application, 256x256 grid, 16 steps: proc resumption and core channel calls dominate, CK traffic is light",
		GoMaxProcs: 1,
		Lib: &libInputs{
			Registry: "stencil", Topo: torus64, Policy: routing.ShortestPath,
			Params: workload.Params{Ranks: 64, Size: 256, Steps: 16, Scheduler: sim.SchedEvent},
			Cycles: 11580, Digest: "a2c5af2720a01270", VerifyWarm: true,
		},
	},
	{
		Name:       "pingpong7-idle",
		Why:        "latency-bound 7-hop pingpong, 2000 rounds: over 99% of cycles are fast-forwarded, so the wake-queue/idle-skip path is the cost; Table 3 anchor",
		GoMaxProcs: 1,
		Lib: &libInputs{
			Registry: "pingpong", Topo: bus8, Policy: routing.ShortestPath,
			Params: workload.Params{Ranks: 8, Size: 2000, Scheduler: sim.SchedEvent},
			Cycles: 3372012, Digest: "0dc3f3015f3acdbe",
		},
	},
	{
		Name:       "bw7-packet",
		Why:        "paper 5.3.1 steady-state streaming of 1 MiB over 7 hops in packet mode: per-packet cost in transport, link and packet",
		GoMaxProcs: 1,
		Lib: &libInputs{
			Registry: "bandwidth", Topo: bus8, Policy: routing.ShortestPath,
			Params: workload.Params{Ranks: 8, Size: 262144, Mode: "packet", Scheduler: sim.SchedEvent},
			Cycles: 57025, Digest: "b4bc9a676809af74",
		},
	},
	{
		Name:       "bw7-stream",
		Why:        "same transfer in streaming mode (rendezvous + cut-through fragments): the same CKs and links used differently",
		GoMaxProcs: 1,
		Lib: &libInputs{
			Registry: "bandwidth", Topo: bus8, Policy: routing.ShortestPath,
			Params: workload.Params{Ranks: 8, Size: 262144, Mode: "streaming", Scheduler: sim.SchedEvent},
			Cycles: 45546, Digest: "33b43d4eb67a6b59",
		},
	},
	{
		Name:       "svc-mix",
		Why:        "what a smid client sees: closed loop, 2 clients over loopback HTTP, seeded mix of small and large jobs, route-cache misses, fault jobs",
		GoMaxProcs: 2,
	},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// notMeasured is the value of a per-layer metric on a workload it does
// not apply to (a par-only counter on an event workload, Stats-derived
// counts where the registry returns an empty Stats). Every run must
// emit every metric as a number, so "absent" has to be a number; -1 is
// never a legitimate reading of any metric here, and no metric with a
// plain time unit ever takes it.
const notMeasured = -1

// metricDef is one row of the metric tables.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median an end-to-end metric may
	// worsen by before a change counts as a regression.
	Bound float64
	// Exact marks a simulated quantity that repeats exactly run to run;
	// -compare reports any change in it.
	Exact bool
}

// exactBound is the bound of the exact metrics. The perf gate wants a
// positive share, so this is the smallest one that prints without an
// exponent; -compare ignores it and reports any change at all.
const exactBound = 0.000001

// endToEnd are the metrics a user of the system sees, measured in the
// untraced pass only. An op is one workload.Run (library workloads) or
// one job, POST to final status (svc-mix). Host time and simulated time
// are never mixed except in ns_per_sim_cycle, which is their ratio.
//
// A bound holds for every workload, so the noisiest one sets it: the
// timed metrics spread 0.2-3% run to run on the single-engine workloads
// and svc-mix but 3.9-6.5% on bcast64-par2 (two threads on a 2-vCPU
// VM), and a bound is kept at three times the widest spread seen.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "ns_per_sim_cycle", Unit: "ns/cycle", Better: "lower", Bound: 0.20},
	{Name: "sim_cycles", Unit: "cycles", Better: "lower", Bound: exactBound, Exact: true},
	{Name: "alloc_mb_per_op", Unit: "MiB/op", Better: "lower", Bound: 0.05},
	{Name: "paper_err_pct", Unit: "%", Better: "lower", Bound: exactBound, Exact: true},
	{Name: "op_ms_p50", Unit: "ms", Better: "lower", Bound: 0.20},
	{Name: "op_ms_p90", Unit: "ms", Better: "lower", Bound: 0.20},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.20},
}

// perLayer are the single-layer metrics of the traced pass; the prefix
// is the package under internal/ the number belongs to.
var perLayer = []metricDef{
	// Exact effort counts from workload.Result.Stats.
	{Name: "sim.kernel_ticks", Unit: "count", Better: "lower", Exact: true},
	{Name: "sim.proc_steps", Unit: "count", Better: "lower", Exact: true},
	{Name: "sim.fifo_commits", Unit: "count", Better: "lower", Exact: true},
	{Name: "sim.cycles_executed", Unit: "count", Better: "lower", Exact: true},
	{Name: "sim.cycles_skipped", Unit: "count", Better: "higher", Exact: true},
	{Name: "sim.skip_ratio", Unit: "ratio", Better: "higher", Exact: true},
	{Name: "sim.syncs", Unit: "count", Better: "lower", Exact: true},
	{Name: "sim.windows", Unit: "count", Better: "lower", Exact: true},
	{Name: "sim.steals", Unit: "count", Better: "lower", Exact: true},
	{Name: "sim.shard_imbalance", Unit: "ratio", Better: "lower", Exact: true},
	{Name: "link.packets_delivered", Unit: "count", Better: "lower", Exact: true},
	{Name: "link.stalls", Unit: "count", Better: "lower", Exact: true},
	{Name: "link.retransmits", Unit: "count", Better: "lower", Exact: true},
	{Name: "transport.stream_fragments", Unit: "count", Better: "lower", Exact: true},
	// Run wall time divided by the counts above.
	{Name: "sim.ns_per_kernel_tick", Unit: "ns/tick", Better: "lower"},
	{Name: "sim.ns_per_proc_step", Unit: "ns/step", Better: "lower"},
	{Name: "sim.ns_per_window", Unit: "ns/window", Better: "lower"},
	{Name: "link.ns_per_packet_hop", Unit: "ns/packet", Better: "lower"},
	// Cross-configuration ratios.
	{Name: "sim.par_speedup", Unit: "ratio", Better: "higher"},
	{Name: "sim.xproc_handoff_ratio", Unit: "ratio", Better: "lower"},
	// Micro loops around public constructors and methods, the same in
	// every run.
	{Name: "sim.kernel_tick_ns", Unit: "ns", Better: "lower"},
	{Name: "sim.proc_switch_ns", Unit: "ns", Better: "lower"},
	{Name: "sim.idle_skip_ns", Unit: "ns", Better: "lower"},
	{Name: "sim.fifo_ns_per_elem", Unit: "ns", Better: "lower"},
	{Name: "sim.fifo_allocs_per_elem", Unit: "count", Better: "lower"},
	{Name: "packet.encode_ns", Unit: "ns", Better: "lower"},
	{Name: "packet.decode_ns", Unit: "ns", Better: "lower"},
	{Name: "packet.checksum_ns", Unit: "ns", Better: "lower"},
	{Name: "packet.raw_roundtrip_ns", Unit: "ns", Better: "lower"},
	{Name: "link.hop_ns", Unit: "ns", Better: "lower"},
	{Name: "link.reliable_hop_ns", Unit: "ns", Better: "lower"},
	{Name: "link.reliable_allocs_per_packet", Unit: "count", Better: "lower"},
	{Name: "transport.ns_per_forward", Unit: "ns", Better: "lower"},
	{Name: "transport.forward_cycles_per_hop", Unit: "cycles", Better: "lower", Exact: true},
	{Name: "core.cluster_build_ms_r64", Unit: "ms", Better: "lower"},
	{Name: "core.push_pop_ns_per_elem", Unit: "ns", Better: "lower"},
	{Name: "core.slice_ns_per_elem", Unit: "ns", Better: "lower"},
	{Name: "routing.compute_ms_torus64_updown", Unit: "ms", Better: "lower"},
	{Name: "routing.compute_ms_torus256_sp", Unit: "ms", Better: "lower"},
	{Name: "routing.verify_ms_torus64", Unit: "ms", Better: "lower"},
	{Name: "topology.build_us_torus64", Unit: "us", Better: "lower"},
	// Timers and runtime.MemStats around the ops of this run.
	{Name: "workload.run_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "workload.run_ms_hi", Unit: "ms", Better: "lower"},
	{Name: "workload.reps", Unit: "count", Better: "higher"},
	{Name: "workload.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "workload.gc_cycles_per_op", Unit: "count", Better: "lower"},
	{Name: "workload.finish_share", Unit: "ratio", Better: "lower"},
	{Name: "core.build_share", Unit: "ratio", Better: "lower"},
	// The service's share of a job's latency, svc-mix only.
	{Name: "service.submit_share", Unit: "ratio", Better: "lower"},
	{Name: "service.queue_wait_share", Unit: "ratio", Better: "lower"},
	{Name: "service.run_share", Unit: "ratio", Better: "higher"},
	{Name: "service.http_share", Unit: "ratio", Better: "lower"},
	{Name: "service.overhead_share", Unit: "ratio", Better: "lower"},
	{Name: "service.p99_over_p50", Unit: "ratio", Better: "lower"},
	{Name: "service.route_cache_hit_rate", Unit: "ratio", Better: "higher"},
	{Name: "service.rejected", Unit: "count", Better: "lower"},
	{Name: "service.worker_busy_share", Unit: "ratio", Better: "higher"},
	{Name: "service.lib_ratio", Unit: "ratio", Better: "lower"},
	{Name: "bench.trace_overhead_ratio", Unit: "ratio", Better: "lower"},
}

// value is one emitted reading.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects the readings of one run by name, taking units from
// the tables so a name can never be emitted with a drifting unit.
type metricSet map[string]value

var units = func() map[string]string {
	u := make(map[string]string)
	for _, m := range endToEnd {
		u[m.Name] = m.Unit
	}
	for _, m := range perLayer {
		u[m.Name] = m.Unit
	}
	return u
}()

func (s metricSet) set(name string, v float64) {
	unit, ok := units[name]
	if !ok {
		panic("benchmark: metric " + name + " is not in the metric tables")
	}
	s[name] = value{Value: v, Unit: unit}
}

// manifest mirrors BENCHMARK.json.
type manifest struct {
	Command    []string         `json:"command"`
	Paths      []string         `json:"paths"`
	RunSeconds int              `json:"run_seconds"`
	Workloads  []manifestLoad   `json:"workloads"`
	EndToEnd   []manifestMetric `json:"end_to_end"`
	PerLayer   []manifestMetric `json:"per_layer"`
}

type manifestLoad struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// buildManifest renders the tables as BENCHMARK.json and checks them
// against the perf gate's limits.
func buildManifest() (manifest, error) {
	m := manifest{
		Command:    []string{"go", "run", "./benchmark"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	seen := make(map[string]bool)
	name := func(n string) error {
		if !nameRE.MatchString(n) {
			return fmt.Errorf("name %q is not [A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n)
		}
		if seen[n] {
			return fmt.Errorf("name %q is used twice", n)
		}
		seen[n] = true
		return nil
	}
	for _, w := range workloads {
		if err := name(w.Name); err != nil {
			return m, err
		}
		if len(w.Why) > 200 {
			return m, fmt.Errorf("workload %s: why is %d characters, limit 200", w.Name, len(w.Why))
		}
		m.Workloads = append(m.Workloads, manifestLoad{Name: w.Name, Why: w.Why})
	}
	metric := func(d metricDef, bounded bool) (manifestMetric, error) {
		if err := name(d.Name); err != nil {
			return manifestMetric{}, err
		}
		if !unitRE.MatchString(d.Unit) {
			return manifestMetric{}, fmt.Errorf("metric %s: bad unit %q", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			return manifestMetric{}, fmt.Errorf("metric %s: better is %q", d.Name, d.Better)
		}
		out := manifestMetric{Name: d.Name, Unit: d.Unit, Better: d.Better}
		if bounded {
			if d.Bound <= 0 || d.Bound > 0.25 {
				return out, fmt.Errorf("metric %s: bound %g outside (0, 0.25]", d.Name, d.Bound)
			}
			b := d.Bound
			out.Bound = &b
		}
		return out, nil
	}
	for _, d := range endToEnd {
		mm, err := metric(d, true)
		if err != nil {
			return m, err
		}
		m.EndToEnd = append(m.EndToEnd, mm)
	}
	for _, d := range perLayer {
		mm, err := metric(d, false)
		if err != nil {
			return m, err
		}
		m.PerLayer = append(m.PerLayer, mm)
	}
	switch {
	case len(m.Workloads) < 2 || len(m.Workloads) > 8:
		return m, fmt.Errorf("%d workloads, limit 2..8", len(m.Workloads))
	case len(m.EndToEnd) < 1 || len(m.EndToEnd) > 16:
		return m, fmt.Errorf("%d end-to-end metrics, limit 1..16", len(m.EndToEnd))
	case len(m.PerLayer) < 1 || len(m.PerLayer) > 128:
		return m, fmt.Errorf("%d per-layer metrics, limit 1..128", len(m.PerLayer))
	}
	return m, nil
}

func manifestJSON() ([]byte, error) {
	m, err := buildManifest()
	if err != nil {
		return nil, err
	}
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
