package main

import (
	"bytes"
	"math"
	"os"
	"testing"
	"time"
)

// TestManifest checks that the committed BENCHMARK.json is exactly what
// the tables generate, so names, units and bounds cannot drift.
func TestManifest(t *testing.T) {
	want, err := manifestJSON()
	if err != nil {
		t.Fatalf("tables break the perf gate's limits: %v", err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json differs from the tables; regenerate it with `go run ./benchmark -manifest > BENCHMARK.json`")
	}
}

// TestSmoke runs every workload through both passes at the smallest
// size (one rep per phase, 40 jobs, micro loops at 1/100) and checks
// that each emits every metric of BENCHMARK.json once with its unit and
// matches its pins.
func TestSmoke(t *testing.T) {
	rec := newRecorder()
	for _, def := range workloads {
		o := options{
			seed: 1, untraced: time.Minute, traced: time.Minute, reportE2E: true,
			setupReps: 1, maxOps: 1, probeScale: 0.01, mixHundreds: 1,
		}
		if def.Lib == nil {
			o.maxOps = 40
		}
		r, err := runWorkload(def, o, rec)
		if err != nil {
			t.Fatalf("%s: %v", def.Name, err)
		}
		if r.Skipped != "" {
			t.Logf("%s skipped: %s", def.Name, r.Skipped)
			continue
		}
		if !r.correct() {
			t.Errorf("%s: %d of %d ops failed: %v", def.Name, r.Failed, r.Attempted, r.Failures)
		}
		if want := len(endToEnd) + len(perLayer); len(r.Metrics) != want {
			t.Errorf("%s: %d metrics emitted, BENCHMARK.json names %d", def.Name, len(r.Metrics), want)
		}
		for _, d := range endToEnd {
			v, ok := r.Metrics[d.Name]
			if !ok || v.Unit != d.Unit || !(v.Value > 0) || math.IsInf(v.Value, 0) {
				t.Errorf("%s: end-to-end %s = %+v (present %v), want a positive reading in %s", def.Name, d.Name, v, ok, d.Unit)
			}
		}
		for _, d := range perLayer {
			v, ok := r.Metrics[d.Name]
			if !ok || v.Unit != d.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
				t.Errorf("%s: per-layer %s = %+v (present %v), want a number in %s", def.Name, d.Name, v, ok, d.Unit)
			}
			if v.Value == notMeasured && timeUnits[d.Unit] {
				t.Errorf("%s: %s is a plain time and must be measured on every workload", def.Name, d.Name)
			}
		}
		reading := func(name string) float64 { return r.Metrics[name].Value }
		if def.Lib != nil && reading("sim_cycles") != float64(def.Lib.Cycles) {
			t.Errorf("%s: sim_cycles %v, pinned %d", def.Name, reading("sim_cycles"), def.Lib.Cycles)
		}
		if got := reading("bench.trace_overhead_ratio"); got <= 0 {
			t.Errorf("%s: bench.trace_overhead_ratio = %v", def.Name, got)
		}
		switch def.Name {
		case "bcast64-par2":
			if reading("sim.par_speedup") <= 0 || reading("sim.windows") <= 0 || reading("sim.shard_imbalance") < 1 {
				t.Errorf("parallel-engine metrics missing: speedup %v windows %v imbalance %v",
					reading("sim.par_speedup"), reading("sim.windows"), reading("sim.shard_imbalance"))
			}
		case "bw7-stream":
			if reading("transport.stream_fragments") <= 0 {
				t.Errorf("bw7-stream cut no stream fragments through")
			}
		case "pingpong7-idle":
			if got := reading("paper_err_pct"); got < 5 || got > 6.5 {
				t.Errorf("paper_err_pct = %v, EXPERIMENTS.md puts the Table 3 gap near 5.8", got)
			}
		case "svc-mix":
			if got := reading("service.route_cache_hit_rate"); got <= 0 || got >= 1 {
				t.Errorf("service.route_cache_hit_rate = %v, want hits and misses", got)
			}
		}
	}
	if self := rec.selfTimes(); self["sim.run"] <= 0 || self["service.run"] <= 0 {
		t.Errorf("traced pass recorded no simulation spans: %v", self)
	}
}

// timeUnits are the plain time units: a metric in one of them is a real
// timing in every run, never the notMeasured placeholder.
var timeUnits = map[string]bool{"s": true, "ms": true, "us": true, "ns": true}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
}

func TestJudge(t *testing.T) {
	timed := metricDef{Name: "op_ms_p50", Better: "lower", Bound: 0.10}
	rate := metricDef{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	exact := metricDef{Name: "sim_cycles", Better: "lower", Exact: true, Bound: exactBound}
	steady := []float64{100, 101, 99, 100, 100}
	cases := []struct {
		name    string
		d       metricDef
		a, b    []float64
		bounded bool
		want    string
	}{
		{"absent side is never same", timed, steady, nil, true, verdictUnresolved},
		{"within bound", timed, steady, []float64{104, 105, 103, 104, 104}, true, verdictSame},
		{"slower beyond bound", timed, steady, []float64{120, 121, 119, 120, 120}, true, verdictWorse},
		{"faster beyond bound", timed, steady, []float64{80, 81, 79, 80, 80}, true, verdictBetter},
		{"higher-is-better drop", rate, steady, []float64{80, 81, 79, 80, 80}, true, verdictWorse},
		{"noisy and overlapping", timed, []float64{80, 100, 120, 90, 110}, []float64{85, 105, 125, 95, 115}, true, verdictUnresolved},
		{"noisy but disjoint", timed, []float64{80, 100, 120, 90, 110}, []float64{180, 200, 220, 190, 210}, true, verdictWorse},
		{"exact equal", exact, []float64{57254, 57254}, []float64{57254}, true, verdictSame},
		{"exact one cycle more", exact, []float64{57254}, []float64{57255}, true, verdictWorse},
		{"exact count moved", exact, []float64{10}, []float64{9}, false, verdictChanged},
		{"per-layer timing is shown only", timed, steady, steady, false, verdictInfo},
	}
	for _, c := range cases {
		if got := judge(c.d, c.a, c.b, c.bounded); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}
