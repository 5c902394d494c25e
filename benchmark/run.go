package main

import (
	"fmt"
	"runtime"
	"time"
)

// options selects what one run of one workload measures.
type options struct {
	seed int64
	// untraced and traced are the lengths of the two phases. The
	// end-to-end metrics come from the untraced phase only; a zero
	// traced length skips the traced phase and the probes.
	untraced, traced time.Duration
	// reportE2E emits the end-to-end metrics. A traced run measures an
	// untraced phase too, as the base of bench.trace_overhead_ratio, but
	// does not report it as an end-to-end reading.
	reportE2E bool
	// setupReps is how many times set-up is run and timed (at least 1);
	// setup_s is the median.
	setupReps int
	// ramp is how long a multi-core workload keeps both cores busy
	// before measuring: the 2-vCPU dev VM only grants a process its
	// second core after ~2.5 s of sustained load.
	ramp time.Duration
	// maxOps caps the ops of each phase (0 = until the phase's time is
	// up); the smoke test sets it.
	maxOps int
	// probeScale sizes the micro loops (1 = full size).
	probeScale float64
	// mixHundreds is the length of svc-mix's seeded job block, in
	// hundreds of jobs.
	mixHundreds int
}

// result is one run of one workload.
type result struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Traced     bool   `json:"traced"`
	GoMaxProcs int    `json:"gomaxprocs"`
	// Reps is the number of ops in the untraced phase.
	Reps int `json:"reps"`
	// RampS is the multi-core warm-up actually applied, in seconds.
	RampS float64 `json:"ramp_s"`
	// Skipped is why the workload was refused (no metrics then).
	Skipped   string    `json:"skipped,omitempty"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Failures  []string  `json:"failures,omitempty"`
	Metrics   metricSet `json:"metrics"`
}

func newResult(def workloadDef, o options) *result {
	return &result{
		Workload: def.Name, Seed: o.seed, Traced: o.traced > 0,
		GoMaxProcs: def.GoMaxProcs, Metrics: make(metricSet),
	}
}

// correct reports whether every op was verified.
func (r *result) correct() bool { return r.Failed == 0 && r.Attempted > 0 }

// count adds a phase's ops to the run's totals.
func (r *result) count(st opStats) {
	r.Attempted += st.attempted
	r.Failed += st.failed
	r.Failures = append(r.Failures, st.failures...)
	if len(r.Failures) > maxFailureNotes {
		r.Failures = r.Failures[:maxFailureNotes]
	}
}

const maxFailureNotes = 5

// opStats accumulates the ops of one phase: per-op latency, the phase's
// wall time and what the Go runtime allocated during it.
type opStats struct {
	ms        []float64
	wall      time.Duration
	start     time.Time
	allocMB   float64 // MiB allocated per op
	mallocs   float64 // heap objects allocated per op
	gcs       float64 // GC cycles per op
	attempted int
	failed    int
	failures  []string
}

// begin starts the phase's clock and allocation counters; end turns the
// counters into per-op figures.
func (s *opStats) begin() {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	s.allocMB, s.mallocs, s.gcs = float64(m.TotalAlloc), float64(m.Mallocs), float64(m.NumGC)
	s.start = time.Now()
}

// more reports whether the phase should start another op: always at
// least one, then until the budget or the op cap is used up.
func (s *opStats) more(budget time.Duration, maxOps int) bool {
	if s.attempted == 0 {
		return true
	}
	if maxOps > 0 && s.attempted >= maxOps {
		return false
	}
	return time.Since(s.start) < budget
}

func (s *opStats) op(latencyMs float64) {
	s.attempted++
	s.ms = append(s.ms, latencyMs)
}

func (s *opStats) fail(format string, args ...any) {
	s.failed++
	if len(s.failures) < maxFailureNotes {
		s.failures = append(s.failures, fmt.Sprintf(format, args...))
	}
}

func (s *opStats) end() {
	s.wall = time.Since(s.start)
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	n := float64(max(s.attempted, 1))
	s.allocMB = (float64(m.TotalAlloc) - s.allocMB) / (1 << 20) / n
	s.mallocs = (float64(m.Mallocs) - s.mallocs) / n
	s.gcs = (float64(m.NumGC) - s.gcs) / n
}

// endToEnd emits every end-to-end metric from the untraced phase, the
// timed set-ups and the workload's simulated cycles and host time per
// cycle, and takes the paper anchor.
func (s *opStats) endToEnd(m metricSet, setups []float64, simCycles, nsPerCycle float64) error {
	errPct, err := paperErrPct()
	if err != nil {
		return fmt.Errorf("paper anchor: %w", err)
	}
	m.set("setup_s", median(setups))
	m.set("paper_err_pct", errPct)
	m.set("sim_cycles", simCycles)
	m.set("ns_per_sim_cycle", nsPerCycle)
	m.set("op_ms_p50", median(s.ms))
	m.set("op_ms_p90", percentile(s.ms, 0.90))
	m.set("ops_per_s", float64(s.attempted-s.failed)/s.wall.Seconds())
	m.set("alloc_mb_per_op", s.allocMB)
	return nil
}

// perLayer starts the per-layer set: every metric at notMeasured, then
// the informational timers and runtime counters around the ops of the
// untraced phase.
func (s *opStats) perLayer(m metricSet) {
	for _, d := range perLayer {
		m.set(d.Name, notMeasured)
	}
	m.set("workload.run_ms_p50", median(s.ms))
	m.set("workload.run_ms_hi", highTail(s.ms))
	m.set("workload.reps", float64(len(s.ms)))
	m.set("workload.allocs_per_op", s.mallocs)
	m.set("workload.gc_cycles_per_op", s.gcs)
}

// runWorkload measures one workload, or refuses it when the host has
// fewer CPUs than the workload's Go scheduler width: a parallel engine
// timed on fewer cores than workers has not been measured at all.
func runWorkload(def workloadDef, o options, rec *recorder) (*result, error) {
	if cpus := runtime.NumCPU(); def.GoMaxProcs > cpus {
		r := newResult(def, o)
		r.Skipped = fmt.Sprintf("needs gomaxprocs=%d, host has %d CPU(s)", def.GoMaxProcs, cpus)
		return r, nil
	}
	if def.Lib == nil {
		return runService(def, o, rec)
	}
	return runLibrary(def, o, rec)
}
