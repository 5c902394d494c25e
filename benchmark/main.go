// Command benchmark is the repository's one performance ruler: seven
// workloads over the whole stack (library runs through workload.Run and
// a closed-loop smid client mix), end-to-end metrics from an untraced
// pass, per-layer attribution from a traced pass, every output checked
// against pinned cycles and digests. See README.md in this directory.
//
// The perf gate runs one workload per process:
//
//	go run ./benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// and reads the last line of standard output. A developer runs them all:
//
//	go run ./benchmark -seed 1 -out run.json
//	go run ./benchmark -compare base.json run.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

// loopbackNote is stated in every output: the service workload's
// traffic is real HTTP but never leaves the host.
const loopbackNote = "svc-mix traffic is HTTP over loopback (httptest server in this process); no network is measured"

// provenance says where and how a set of runs was taken.
type provenance struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	HostCPUs   int     `json:"host_cpus"`
	Seed       int64   `json:"seed"`
	RunSeconds float64 `json:"run_seconds"`
	Loopback   string  `json:"loopback"`
}

// document is what -out writes and -compare reads. Each run carries its
// own gomaxprocs, reps and the multi-core warm-up actually applied.
type document struct {
	Provenance provenance `json:"provenance"`
	Runs       []*result  `json:"runs"`
}

func main() {
	var (
		workloadName = flag.String("workload", "all", "workload to run, or all")
		seed         = flag.Int64("seed", 1, "seed of svc-mix's job order, topology draw and fault seeds (library workloads take no input)")
		seconds      = flag.Float64("seconds", runSeconds, "how long one run measures")
		trace        = flag.Int("trace", -1, "0: untraced pass (end-to-end metrics); 1: traced pass (per-layer metrics); -1: untraced, then traced at a quarter of the length")
		runs         = flag.Int("runs", 1, "repeat every workload this many times (-compare wants several)")
		out          = flag.String("out", "", "write every run as JSON to this file; spans go to <out>.trace.json")
		commit       = flag.String("commit", "", "commit to record (default: the build's VCS stamp)")
		compare      = flag.Bool("compare", false, "compare two -out files given as arguments: A.json B.json")
		printTable   = flag.Bool("manifest", false, "print BENCHMARK.json as generated from the tables and exit")
	)
	flag.Parse()
	err := func() error {
		switch {
		case *printTable:
			b, err := manifestJSON()
			if err != nil {
				return err
			}
			_, err = os.Stdout.Write(b)
			return err
		case *compare:
			if flag.NArg() != 2 {
				return errors.New("-compare takes two files: A.json B.json")
			}
			return compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		}
		return measure(*workloadName, *seed, *seconds, *trace, *runs, *out, *commit)
	}()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// phases maps the -trace flag to what a run measures.
func phases(trace int, seconds float64, seed int64) (options, error) {
	length := time.Duration(seconds * float64(time.Second))
	o := options{seed: seed, ramp: 3 * time.Second, probeScale: 1, mixHundreds: 10}
	switch trace {
	case 0:
		o.untraced, o.reportE2E, o.setupReps = length, true, 3
	case 1:
		// Half the time untraced, as the base the traced half is compared
		// with, so the whole run measures for the requested length.
		o.untraced, o.traced, o.setupReps = length/2, length/2, 1
	case -1:
		o.untraced, o.traced, o.reportE2E, o.setupReps = length, length/4, true, 3
	default:
		return o, fmt.Errorf("-trace %d: want 0, 1 or -1", trace)
	}
	return o, nil
}

func measure(name string, seed int64, seconds float64, trace, runs int, out, commit string) error {
	o, err := phases(trace, seconds, seed)
	if err != nil {
		return err
	}
	defs := workloads
	if name != "all" {
		def, ok := findWorkload(name)
		if !ok {
			return fmt.Errorf("unknown workload %q", name)
		}
		defs = []workloadDef{def}
	}
	doc := document{Provenance: provenance{
		Commit: commitID(commit), GoVersion: runtime.Version(), HostCPUs: runtime.NumCPU(),
		Seed: seed, RunSeconds: seconds, Loopback: loopbackNote,
	}}
	fmt.Printf("# commit %s, %s, host_cpus %d, seed %d, %.3g s per run\n# %s\n",
		doc.Provenance.Commit, doc.Provenance.GoVersion, doc.Provenance.HostCPUs, seed, seconds, loopbackNote)

	var rec *recorder
	if o.traced > 0 {
		rec = newRecorder()
	}
	for _, def := range defs {
		for i := 0; i < runs; i++ {
			r, err := runWorkload(def, o, rec)
			if err != nil {
				return err
			}
			doc.Runs = append(doc.Runs, r)
			printResult(r)
		}
	}
	if rec != nil {
		path := out + ".trace.json"
		if out == "" {
			path = filepath.Join(".bench_build", "trace", fmt.Sprintf("%s-seed%d.trace.json", name, seed))
		}
		if err := rec.write(path); err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
		fmt.Printf("# spans written to %s\n", path)
	}
	if out != "" {
		b, err := json.Marshal(doc)
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	return finish(doc.Runs, trace)
}

// commitID prefers the flag, then the VCS stamp `go build` leaves in
// the binary (`go run` leaves none).
func commitID(flagValue string) string {
	if flagValue != "" {
		return flagValue
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" && s.Value != "" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// printResult lists every metric of a run by name, with its unit.
func printResult(r *result) {
	fmt.Printf("\n== %s  seed=%d gomaxprocs=%d reps=%d ramp=%.2fs attempted=%d failed=%d\n",
		r.Workload, r.Seed, r.GoMaxProcs, r.Reps, r.RampS, r.Attempted, r.Failed)
	if r.Skipped != "" {
		fmt.Printf("   SKIPPED: %s\n", r.Skipped)
		return
	}
	for _, f := range r.Failures {
		fmt.Printf("   FAILED: %s\n", f)
	}
	for _, table := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range table {
			v, ok := r.Metrics[d.Name]
			switch {
			case !ok:
			case v.Value == notMeasured:
				fmt.Printf("   %-36s %16s %s\n", d.Name, "-", v.Unit)
			default:
				fmt.Printf("   %-36s %16.6g %s\n", d.Name, v.Value, v.Unit)
			}
		}
	}
}

// finish fails the process when any run did not verify and, for a
// single run, prints the perf gate's result object as the final line of
// standard output: every end-to-end metric of an untraced run, every
// per-layer metric of a traced one.
func finish(runs []*result, trace int) error {
	ok := true
	for _, r := range runs {
		if r.Skipped == "" && !r.correct() {
			ok = false
		}
	}
	if len(runs) == 1 {
		r := runs[0]
		if r.Skipped != "" {
			return fmt.Errorf("%s refused: %s", r.Workload, r.Skipped)
		}
		final := struct {
			Correct   bool      `json:"correct"`
			Attempted int       `json:"attempted"`
			Failed    int       `json:"failed"`
			Metrics   metricSet `json:"metrics"`
		}{ok, r.Attempted, r.Failed, make(metricSet)}
		tables := [][]metricDef{endToEnd, perLayer}
		if trace >= 0 {
			tables = tables[trace : trace+1]
		}
		for _, table := range tables {
			for _, d := range table {
				v, measured := r.Metrics[d.Name]
				if !measured {
					return fmt.Errorf("%s: metric %s was not measured", r.Workload, d.Name)
				}
				final.Metrics[d.Name] = v
			}
		}
		b, err := json.Marshal(final)
		if err != nil {
			return err
		}
		fmt.Printf("%s\n", b)
	}
	if !ok {
		return errors.New("some ops failed verification (see the FAILED lines above)")
	}
	return nil
}
