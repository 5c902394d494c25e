package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Verdicts of -compare, per (metric, workload).
const (
	verdictSame       = "same"
	verdictBetter     = "better"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
	verdictChanged    = "changed" // an exact per-layer count moved; no direction is claimed
	verdictInfo       = "-"       // per-layer timing: shown, not judged (no bound)
)

func readDocument(path string) (*document, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d document
	if err := json.Unmarshal(b, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &d, nil
}

// readings collects a metric's values on one workload across a
// document's runs. End-to-end metrics come from runs that reported
// them (untraced), per-layer metrics from traced runs; a reading of
// notMeasured is no reading.
func readings(d *document, workload, metric string) []float64 {
	var out []float64
	for _, r := range d.Runs {
		if r.Workload != workload || r.Skipped != "" {
			continue
		}
		if v, ok := r.Metrics[metric]; ok && v.Value != notMeasured {
			out = append(out, v.Value)
		}
	}
	return out
}

// judge compares B's readings of one metric with A's.
func judge(d metricDef, a, b []float64, bounded bool) string {
	if len(a) == 0 || len(b) == 0 {
		// Absent on a side (a skipped workload, say) is never "same".
		return verdictUnresolved
	}
	a1, aMed, a3 := quartiles(a)
	b1, bMed, b3 := quartiles(b)
	sa, sb := sortedCopy(a), sortedCopy(b)
	minA, maxA, minB, maxB := sa[0], sa[len(sa)-1], sb[0], sb[len(sb)-1]
	lower := d.Better == "lower"
	if d.Exact {
		switch {
		case minA != maxA || minB != maxB:
			return verdictUnresolved // an exact metric that varies within one side
		case aMed == bMed:
			return verdictSame
		case !bounded:
			return verdictChanged
		case (bMed < aMed) == lower:
			return verdictBetter
		default:
			return verdictWorse
		}
	}
	if !bounded {
		return verdictInfo
	}
	if aMed == 0 {
		return verdictUnresolved
	}
	// worse > 0 when B's median is worse than A's, as a share of A's.
	worse := (bMed - aMed) / aMed
	if !lower {
		worse = -worse
	}
	spread := max((a3-a1)/aMed, (b3-b1)/bMed)
	overlap := minA <= maxB && minB <= maxA
	switch {
	case spread > d.Bound && overlap:
		return verdictUnresolved
	case worse > d.Bound:
		return verdictWorse
	case worse < -d.Bound:
		return verdictBetter
	default:
		return verdictSame
	}
}

// compareFiles prints, per metric and workload, both sides' medians and
// quartiles, the bound and a verdict, and returns an error when any
// end-to-end pairing is worse or unresolved.
func compareFiles(w io.Writer, pathA, pathB string) error {
	a, err := readDocument(pathA)
	if err != nil {
		return err
	}
	b, err := readDocument(pathB)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "A: %s  commit %s, host_cpus %d, seed %d, %d runs\n", pathA, a.Provenance.Commit, a.Provenance.HostCPUs, a.Provenance.Seed, len(a.Runs))
	fmt.Fprintf(w, "B: %s  commit %s, host_cpus %d, seed %d, %d runs\n", pathB, b.Provenance.Commit, b.Provenance.HostCPUs, b.Provenance.Seed, len(b.Runs))
	fmt.Fprintf(w, "%-16s %-34s %12s %25s %12s %25s %8s  %s\n",
		"workload", "metric", "A median", "A q1..q3", "B median", "B q1..q3", "bound", "verdict")
	row := func(workload string, d metricDef, bounded bool) string {
		ra, rb := readings(a, workload, d.Name), readings(b, workload, d.Name)
		if len(ra) == 0 && len(rb) == 0 && !bounded {
			return "" // a per-layer metric that does not apply to this workload
		}
		verdict := judge(d, ra, rb, bounded)
		a1, aMed, a3 := quartiles(ra)
		b1, bMed, b3 := quartiles(rb)
		bound := ""
		if bounded {
			bound = fmt.Sprintf("%g", d.Bound)
			if d.Exact {
				bound = "exact"
			}
		}
		fmt.Fprintf(w, "%-16s %-34s %12.6g %12.6g..%-11.6g %12.6g %12.6g..%-11.6g %8s  %s\n",
			workload, d.Name, aMed, a1, a3, bMed, b1, b3, bound, verdict)
		return verdict
	}
	bad := 0
	for _, wl := range workloads {
		fa, fb := failShare(a, wl.Name), failShare(b, wl.Name)
		verdict := verdictSame
		switch {
		case fa < 0 || fb < 0:
			verdict = verdictUnresolved
		case fb > fa:
			verdict = verdictWorse
		case fb < fa:
			verdict = verdictBetter
		}
		fmt.Fprintf(w, "%-16s %-34s %12.6g %25s %12.6g %25s %8s  %s\n", wl.Name, "fail_share", fa, "", fb, "", "exact", verdict)
		if verdict == verdictWorse || verdict == verdictUnresolved {
			bad++
		}
		for _, d := range endToEnd {
			if v := row(wl.Name, d, true); v == verdictWorse || v == verdictUnresolved {
				bad++
			}
		}
		for _, d := range perLayer {
			row(wl.Name, d, false)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d end-to-end pairing(s) worse or unresolved", bad)
	}
	return nil
}

// failShare is failed ops / attempted over a workload's runs, -1 when
// it did not run.
func failShare(d *document, workload string) float64 {
	attempted, failed := 0, 0
	for _, r := range d.Runs {
		if r.Workload == workload && r.Skipped == "" {
			attempted += r.Attempted
			failed += r.Failed
		}
	}
	if attempted == 0 {
		return -1
	}
	return float64(failed) / float64(attempted)
}
