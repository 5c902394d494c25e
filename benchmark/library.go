package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	smi "repro/internal/core"
	"repro/internal/routing"
	"repro/internal/workload"
)

// libRun is one library workload being measured: its inputs plus the
// topology and routes the last set-up built.
type libRun struct {
	def    workloadDef
	in     libInputs
	params workload.Params
	last   workload.Result // the most recent verified result
}

// build constructs the topology and routing tables the way a library
// user would before calling workload.Run, optionally recording a span
// per layer under parent.
func (l *libRun) build(rec *recorder, parent int, trace string) error {
	note := func(name string, start time.Time) {
		if rec != nil {
			rec.add(parent, trace, name, start, time.Now())
		}
	}
	start := time.Now()
	topo, err := l.in.Topo.Build()
	if err != nil {
		return err
	}
	note("topology.build", start)

	start = time.Now()
	routes, err := routing.Compute(topo, l.in.Policy)
	if err != nil {
		return err
	}
	note("routing.compute", start)

	if l.in.Policy == routing.UpDown {
		start = time.Now()
		if err := routing.VerifyDeadlockFree(routes); err != nil {
			return err
		}
		note("routing.verify", start)
	}
	l.params = l.in.Params
	l.params.Topology, l.params.RoutingPolicy, l.params.Routes = topo, l.in.Policy, routes
	return nil
}

// setup is what setup_s times: topology and route construction plus one
// verified warm-up rep.
func (l *libRun) setup() error {
	if err := l.build(nil, -1, ""); err != nil {
		return err
	}
	p := l.params
	p.Verify = l.in.VerifyWarm
	res, err := workload.Run(l.in.Registry, p)
	if err != nil {
		return err
	}
	return l.check(res, !p.Verify)
}

// check compares a result against the pins and against what was
// requested: a run that silently fell back to another scheduler or
// transfer path is a failed op, not a fast one.
func (l *libRun) check(res workload.Result, digest bool) error {
	if res.Cycles != l.in.Cycles {
		return fmt.Errorf("simulated %d cycles, pinned %d", res.Cycles, l.in.Cycles)
	}
	if digest && res.OutputDigest != l.in.Digest {
		return fmt.Errorf("output digest %s, pinned %s", res.OutputDigest, l.in.Digest)
	}
	// The pingpong registry entry returns an empty Stats (see the README's
	// gap list), so there is nothing to check its self-report against.
	if sc := res.Stats.Sched; sc.Scheduler != "" {
		if want := l.in.Params.Scheduler.String(); sc.Scheduler != want {
			return fmt.Errorf("ran scheduler %q, requested %q", sc.Scheduler, want)
		}
		if want := l.in.Params.Shards; want > 1 && sc.Shards != want {
			return fmt.Errorf("ran %d shards, requested %d", sc.Shards, want)
		}
	}
	if l.in.Params.Mode == "streaming" && res.Stats.StreamFragments == 0 {
		return fmt.Errorf("streaming mode cut no fragments through: the eager path ran instead")
	}
	return nil
}

// measure runs untraced reps for the budget and verifies each.
func (l *libRun) measure(budget time.Duration, maxOps int) opStats {
	var st opStats
	st.begin()
	for st.more(budget, maxOps) {
		start := time.Now()
		res, err := workload.Run(l.in.Registry, l.params)
		st.op(ms(time.Since(start)))
		if err == nil {
			err = l.check(res, true)
		}
		if err != nil {
			st.fail("%s rep %d: %v", l.def.Name, st.attempted, err)
			continue
		}
		l.last = res
	}
	st.end()
	return st
}

// tracedPhase is what the traced reps add to opStats: where inside
// workload.Run the host time went.
type tracedPhase struct {
	opStats
	buildShare  []float64 // core.build / workload.run, per rep
	finishShare []float64 // workload.finish / workload.run, per rep
}

// measureTraced runs reps with spans recorded: the root covers what a
// library user does per run (build topology, compute routes, run), and
// workload.Run is split by the host time of the first and last progress
// ticks into cluster build, simulation and finish (digest + teardown).
// Progress callbacks are cycle-invisible, so each rep must still match
// its pins.
func (l *libRun) measureTraced(rec *recorder, budget time.Duration, maxOps int) tracedPhase {
	var tp tracedPhase
	tp.begin()
	for tp.more(budget, maxOps) {
		trace := fmt.Sprintf("%s/%d", l.def.Name, tp.attempted)
		rootStart := time.Now()
		root := rec.add(-1, trace, "bench.workload", rootStart, rootStart) // closed below
		if err := l.build(rec, root, trace); err != nil {
			tp.op(ms(time.Since(rootStart)))
			tp.fail("%s: %v", trace, err)
			continue
		}
		var first, last time.Time
		p := l.params
		p.ProgressEvery = 1024
		p.Progress = func(int64) {
			last = time.Now()
			if first.IsZero() {
				first = last
			}
		}
		start := time.Now()
		res, err := workload.Run(l.in.Registry, p)
		end := time.Now()
		tp.op(ms(end.Sub(start)))
		run := rec.add(root, trace, "workload.run", start, end)
		rec.close(root, end)
		if err == nil {
			err = l.check(res, true)
		}
		if err != nil {
			tp.fail("%s: %v", trace, err)
			continue
		}
		if first.IsZero() {
			// No progress tick: the whole run is one simulation span.
			rec.add(run, trace, "sim.run", start, end)
			continue
		}
		rec.add(run, trace, "core.build", start, first)
		rec.add(run, trace, "sim.run", first, last)
		rec.add(run, trace, "workload.finish", last, end)
		whole := float64(end.Sub(start))
		tp.buildShare = append(tp.buildShare, float64(first.Sub(start))/whole)
		tp.finishShare = append(tp.finishShare, float64(end.Sub(last))/whole)
	}
	tp.end()
	return tp
}

// runLibrary measures one library workload.
func runLibrary(def workloadDef, o options, rec *recorder) (*result, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(def.GoMaxProcs))
	r := newResult(def, o)
	l := &libRun{def: def, in: *def.Lib}

	var setups []float64
	for i := 0; i < o.setupReps; i++ {
		start := time.Now()
		if err := l.setup(); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", def.Name, err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	if def.GoMaxProcs > 1 && o.ramp > 0 {
		// Discarded reps of the workload itself keep both cores busy
		// until the host has granted the second one.
		start := time.Now()
		ramp := l.measure(o.ramp, o.maxOps)
		r.RampS = time.Since(start).Seconds()
		r.count(ramp)
	}

	un := l.measure(o.untraced, o.maxOps)
	r.count(un)
	r.Reps = len(un.ms)
	if un.failed == len(un.ms) {
		return r, nil // nothing verified: no numbers to report
	}
	m := r.Metrics
	runMs := median(un.ms)
	if o.reportE2E {
		cycles := float64(l.in.Cycles)
		if err := un.endToEnd(m, setups, cycles, runMs*1e6/cycles); err != nil {
			return nil, fmt.Errorf("%s: %w", def.Name, err)
		}
	}
	if o.traced == 0 {
		return r, nil
	}

	tp := l.measureTraced(rec, o.traced, o.maxOps)
	r.count(tp.opStats)
	un.perLayer(m)
	statsMetrics(m, l.last.Stats, runMs*1e6)
	if len(tp.buildShare) > 0 {
		m.set("core.build_share", median(tp.buildShare))
		m.set("workload.finish_share", median(tp.finishShare))
	}
	if len(tp.ms) > 0 {
		m.set("bench.trace_overhead_ratio", median(tp.ms)/runMs)
	}
	if err := l.crossRatios(m, runMs, o); err != nil {
		return nil, err
	}
	if err := runProbes(o.probeScale, m); err != nil {
		return nil, err
	}
	return r, nil
}

// crossRatios compares this workload with the same inputs under another
// configuration: the event engine at the host's full Go scheduler width
// (the hand-off penalty a default-GOMAXPROCS user pays), and the
// parallel engine against the event engine.
func (l *libRun) crossRatios(m metricSet, ownMs float64, o options) error {
	reps := 3
	if o.maxOps > 0 {
		reps = min(reps, o.maxOps)
	}
	other := func(def workloadDef, procs int) (float64, error) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		x := &libRun{def: def, in: *def.Lib}
		if err := x.build(nil, -1, ""); err != nil {
			return 0, err
		}
		st := x.measure(time.Hour, reps)
		if st.failed > 0 {
			return 0, fmt.Errorf("%s at GOMAXPROCS=%d: %s", def.Name, procs, st.failures[0])
		}
		return median(st.ms), nil
	}
	if cpus := runtime.NumCPU(); l.def.HandoffProbe && cpus > 1 {
		wide, err := other(l.def, cpus)
		if err != nil {
			return err
		}
		m.set("sim.xproc_handoff_ratio", wide/ownMs)
	}
	if event, ok := findWorkload(l.def.SpeedupOver); ok {
		eventMs, err := other(event, event.GoMaxProcs)
		if err != nil {
			return err
		}
		m.set("sim.par_speedup", eventMs/ownMs)
	}
	return nil
}

// statsMetrics fills the exact per-layer counts from a run's Stats and
// divides the run's host time by them. An empty Stats (no scheduler
// named) leaves everything at notMeasured.
func statsMetrics(m metricSet, st smi.Stats, runNs float64) {
	sc := st.Sched
	if sc.Scheduler == "" {
		return
	}
	m.set("sim.kernel_ticks", float64(sc.KernelTicks))
	m.set("sim.proc_steps", float64(sc.ProcSteps))
	m.set("sim.fifo_commits", float64(sc.FifoCommits))
	m.set("sim.cycles_executed", float64(sc.CyclesExecuted))
	m.set("sim.cycles_skipped", float64(sc.CyclesSkipped))
	if total := sc.CyclesExecuted + sc.CyclesSkipped; total > 0 {
		m.set("sim.skip_ratio", float64(sc.CyclesSkipped)/float64(total))
	}
	m.set("sim.syncs", float64(sc.Syncs))
	m.set("sim.windows", float64(sc.Windows))
	m.set("sim.steals", float64(sc.Steals))
	m.set("link.packets_delivered", float64(st.PacketsDelivered))
	m.set("link.stalls", float64(st.LinkStalls))
	m.set("link.retransmits", float64(st.Retransmits))
	m.set("transport.stream_fragments", float64(st.StreamFragments))
	per := func(name string, count float64) {
		if count > 0 && runNs > 0 {
			m.set(name, runNs/count)
		}
	}
	per("sim.ns_per_kernel_tick", float64(sc.KernelTicks))
	per("sim.ns_per_proc_step", float64(sc.ProcSteps))
	per("sim.ns_per_window", float64(sc.Windows))
	per("link.ns_per_packet_hop", float64(st.PacketsDelivered))
	if len(sc.PerShard) > 1 {
		var peak, sum float64
		for _, sh := range sc.PerShard {
			work := float64(sh.KernelTicks + sh.ProcSteps)
			peak = max(peak, work)
			sum += work
		}
		if sum > 0 {
			m.set("sim.shard_imbalance", peak/(sum/float64(len(sc.PerShard))))
		}
	}
}

// paperLatencyUs is the paper's Table 3 one-way latency over 7 hops.
const paperLatencyUs = 5.103

// paperErrPct runs the 7-hop pingpong of Table 3 and returns the
// simulated one-way latency's distance from the paper's measurement, in
// percent of the paper's. It is stated beside every simulated speed so
// a faster simulator that drifted from the hardware shows.
func paperErrPct() (float64, error) {
	def, _ := findWorkload("pingpong7-idle")
	topo, err := def.Lib.Topo.Build()
	if err != nil {
		return 0, err
	}
	p := def.Lib.Params
	p.Topology = topo
	res, err := workload.Run(def.Lib.Registry, p)
	if err != nil {
		return 0, err
	}
	got := res.Metrics["latency_us"]
	return math.Abs(got-paperLatencyUs) / paperLatencyUs * 100, nil
}
