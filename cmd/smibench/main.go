// Command smibench regenerates the paper's evaluation tables and
// figures on the simulated cluster. Stdout carries only the reports —
// pure functions of the simulator — so `smibench all > results_full.txt`
// regenerates the committed golden file (and the BENCH_*.json copies in
// the working directory); timing and file notices go to stderr.
//
// Usage:
//
//	smibench -list
//	smibench all > results_full.txt
//	smibench table3 fig9 ...
//	smibench -ranks 256,1024 -workload stencil scaling
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"repro/internal/bench"
)

func main() {
	list := flag.Bool("list", false, "list available experiments")
	jsonOut := flag.Bool("json", false, "write machine-readable JSON to stdout instead of tables (the stats schema matches what smid serves)")
	ranks := flag.String("ranks", "", "comma-separated rank counts for rank sweeps (e.g. 8,16,32,64)")
	workload := flag.String("workload", "", "restrict multi-workload experiments to one workload (e.g. stencil, bcast)")
	shards := flag.Int("shards", 0, "shard-adaptive worker count for the parallel rows of rank sweeps (0 = experiment default)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the experiment runs to this file (go tool pprof)")
	memProfile := flag.String("memprofile", "", "write a heap profile taken after the experiment runs to this file")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: smibench [-list] <experiment>... | all\n\nexperiments:\n")
		for _, e := range bench.Experiments() {
			fmt.Fprintf(os.Stderr, "  %-8s %s\n", e.ID, e.Title)
		}
	}
	flag.Parse()

	if *list {
		for _, e := range bench.Experiments() {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
		return
	}
	args := flag.Args()
	if len(args) == 0 {
		flag.Usage()
		os.Exit(2)
	}

	var exps []bench.Experiment
	if len(args) == 1 && args[0] == "all" {
		exps = bench.Experiments()
	} else {
		for _, id := range args {
			e, err := bench.ByID(id)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
			exps = append(exps, e)
		}
	}

	opts := bench.Options{Workload: *workload, Shards: *shards}
	if *ranks != "" {
		for _, part := range strings.Split(*ranks, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil {
				fmt.Fprintf(os.Stderr, "bad -ranks value %q: %v\n", part, err)
				os.Exit(2)
			}
			opts.Ranks = append(opts.Ranks, n)
		}
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
				os.Exit(1)
			}
			defer f.Close()
			runtime.GC() // profile live objects, not transient garbage
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
				os.Exit(1)
			}
		}()
	}

	// jsonReport is one element of the -json stdout document.
	type jsonReport struct {
		ID      string             `json:"id"`
		Title   string             `json:"title"`
		Metrics map[string]float64 `json:"metrics,omitempty"`
		// Data is the experiment's machine-readable document — for
		// workload-level experiments, the same Result/Stats schema the
		// smid service serves per job.
		Data json.RawMessage `json:"data,omitempty"`
	}
	var jsonDoc []jsonReport

	for _, e := range exps {
		start := time.Now()
		report, err := e.Run(opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.ID, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "%s regenerated in %.1fs wall time\n", e.ID, time.Since(start).Seconds())
		if *jsonOut {
			jsonDoc = append(jsonDoc, jsonReport{
				ID: e.ID, Title: report.Title,
				Metrics: report.Metrics,
				Data:    json.RawMessage(report.JSON),
			})
			continue
		}
		report.Print(os.Stdout)
		if report.JSON != nil {
			if err := os.WriteFile(e.JSONFile, report.JSON, 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "%s: writing %s: %v\n", e.ID, e.JSONFile, err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "%s: machine-readable copy written to %s\n", e.ID, e.JSONFile)
		}
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(jsonDoc); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
}
