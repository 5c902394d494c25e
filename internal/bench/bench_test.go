package bench

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// The committed goldens live at the repository root. Regenerate them
// (results_full.txt and every BENCH_*.json) with
//
//	go run ./cmd/smibench all > results_full.txt
const (
	repoRoot   = "../.."
	goldenText = repoRoot + "/results_full.txt"
	regenerate = "if the change is intended, regenerate with `go run ./cmd/smibench all > results_full.txt` and review the diff"
)

// reportCache runs each experiment at most once per test binary: the
// golden test, the paper table and the shape tests all read the same
// full-size report. TestGolden sorts first and fills it two at a time;
// any other test run alone pays only for the experiments it names.
var reportCache sync.Map // id -> func() (*Report, error)

// fullReport returns the experiment's default-options report. Skipped
// under -short: the full sweeps take ~22 s of CPU.
func fullReport(t *testing.T, id string) *Report {
	t.Helper()
	if testing.Short() {
		t.Skip("full-size experiment run")
	}
	e, err := ByID(id)
	if err != nil {
		t.Fatal(err)
	}
	run, _ := reportCache.LoadOrStore(id, sync.OnceValues(func() (*Report, error) { return e.Run(Options{}) }))
	r, err := run.(func() (*Report, error))()
	if err != nil {
		t.Fatal(err)
	}
	if r.ID != id || len(r.Rows) == 0 || len(r.Header) == 0 {
		t.Fatalf("malformed report: %+v", r)
	}
	for _, row := range r.Rows {
		if len(row) != len(r.Header) {
			t.Fatalf("row width %d != header width %d: %v", len(row), len(r.Header), row)
		}
	}
	return r
}

// number parses a table cell ("~2" reads as 2).
func number(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimPrefix(s, "~"), 64)
	if err != nil {
		t.Fatalf("cell %q not numeric: %v", s, err)
	}
	return v
}

func cell(t *testing.T, r *Report, row, col int) float64 {
	t.Helper()
	return number(t, r.Rows[row][col])
}

func printed(r *Report) string {
	var buf bytes.Buffer
	r.Print(&buf)
	return buf.String()
}

// goldenSections splits results_full.txt into its per-experiment
// sections, keyed by ID, in file order.
func goldenSections(t *testing.T) (ids []string, sections map[string]string) {
	t.Helper()
	raw, err := os.ReadFile(goldenText)
	if err != nil {
		t.Fatalf("no committed golden: %v", err)
	}
	sections = map[string]string{}
	for _, part := range strings.SplitAfter(string(raw), "\n") {
		if strings.HasPrefix(part, "== ") {
			id, _, ok := strings.Cut(part[3:], ":")
			if !ok || sections[id] != "" {
				t.Fatalf("%s: malformed or duplicate section header %q", goldenText, part)
			}
			ids = append(ids, id)
		}
		if len(ids) == 0 {
			t.Fatalf("%s: text before the first section header: %q", goldenText, part)
		}
		sections[ids[len(ids)-1]] += part
	}
	return ids, sections
}

// diffLine fails the test at the first line where got and want differ.
func diffLine(t *testing.T, what, got, want string) {
	t.Helper()
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	line := func(lines []string, i int) string {
		if i < len(lines) {
			return lines[i]
		}
		return "<end>"
	}
	for i := range max(len(g), len(w)) {
		if line(g, i) != line(w, i) {
			t.Fatalf("%s line %d differs\n  regenerated: %q\n  committed:   %q\n%s", what, i+1, line(g, i), line(w, i), regenerate)
		}
	}
}

// TestGolden is the repository's paper-fidelity regression test: every
// registered experiment, run once at full size, must print its section
// of results_full.txt and emit its committed BENCH_*.json byte for byte.
// Experiments are pure functions of a cycle-accurate simulator, so there
// is no tolerance and no host dependence (TestPurity keeps it so).
func TestGolden(t *testing.T) {
	_, sections := goldenSections(t)
	for _, e := range Experiments() {
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			r := fullReport(t, e.ID)
			diffLine(t, "results_full.txt section "+e.ID, printed(r), sections[e.ID])
			if (r.JSON != nil) != (e.JSONFile != "") {
				t.Fatalf("report carries JSON: %v, registered JSONFile: %q", r.JSON != nil, e.JSONFile)
			}
			if e.JSONFile == "" {
				return
			}
			want, err := os.ReadFile(filepath.Join(repoRoot, e.JSONFile))
			if err != nil {
				t.Fatalf("no committed golden: %v", err)
			}
			diffLine(t, e.JSONFile, string(r.JSON), string(want))
		})
	}
}

// TestRegistryComplete holds the registry and the committed goldens to
// each other, both ways: every experiment has a results_full.txt section
// (in `smibench all` order) and its JSONFile exists; every section and
// every BENCH_*.json at the root belongs to a registered experiment.
func TestRegistryComplete(t *testing.T) {
	var ids, jsonFiles []string
	for _, e := range Experiments() {
		ids = append(ids, e.ID)
		if e.JSONFile != "" {
			jsonFiles = append(jsonFiles, e.JSONFile)
		}
	}
	sectionIDs, _ := goldenSections(t)
	if got, want := strings.Join(sectionIDs, " "), strings.Join(ids, " "); got != want {
		t.Errorf("results_full.txt sections and registered experiments differ\n  sections:   %s\n  registered: %s\n%s", got, want, regenerate)
	}
	committed, err := filepath.Glob(repoRoot + "/BENCH_*.json")
	if err != nil {
		t.Fatal(err)
	}
	for i, path := range committed {
		committed[i] = filepath.Base(path)
	}
	slices.Sort(jsonFiles)
	if got, want := strings.Join(committed, " "), strings.Join(jsonFiles, " "); got != want {
		t.Errorf("committed BENCH_*.json and registered JSONFiles differ\n  committed:  %s\n  registered: %s", got, want)
	}
	if _, err := ByID("nope"); err == nil {
		t.Error("unknown ID accepted")
	}
}

// paperRows makes EXPERIMENTS.md's "Reproduced?" column executable: one
// entry per published number the reports print next to their own. row
// is the row's first cell ("" = every row of the report), col the
// measured column, paperCol the column holding the published value (or
// paper itself, where the report prints none), tolPct the allowed
// |measured − paper| / paper in percent (0 = equal).
var paperRows = []struct {
	exp, row, col, paperCol string
	paper, tolPct           float64
}{
	// Table 1/2: the calibrated resource model — exact, or within 1 %.
	{exp: "table1", col: "LUTs", paperCol: "paper LUTs"},
	{exp: "table1", col: "FFs", paperCol: "paper FFs", tolPct: 1},
	{exp: "table1", col: "M20Ks", paperCol: "paper M20Ks"},
	{exp: "table2", col: "LUTs", paperCol: "paper LUTs", tolPct: 1},
	{exp: "table2", col: "FFs", paperCol: "paper FFs"},
	{exp: "table2", col: "DSPs", paperCol: "paper DSPs"},
	// Table 3: the link latency was chosen once to land the 1-hop anchor;
	// the rest follows from the transport model. SMI-7 is the anchor
	// `go run ./benchmark` reports as paper_err_pct (5.398 vs 5.103 µs).
	{exp: "table3", row: "MPI+OpenCL", col: "latency (us)", paperCol: "paper (us)", tolPct: 6},
	{exp: "table3", row: "SMI-1", col: "latency (us)", paperCol: "paper (us)", tolPct: 1},
	{exp: "table3", row: "SMI-4", col: "latency (us)", paperCol: "paper (us)", tolPct: 7},
	{exp: "table3", row: "SMI-7", col: "latency (us)", paperCol: "paper (us)", tolPct: 6},
	// Table 4: R=1 reproduces the paper's arithmetic; for R >= 4 the
	// literal poller gives the ideal (R+4)/R and the paper's RTL sits
	// above it — deviation D1, pinned at today's distance.
	{exp: "table4", row: "1", col: "cycles/msg", paperCol: "paper cycles/msg", tolPct: 1},
	{exp: "table4", row: "4", col: "cycles/msg", paperCol: "paper cycles/msg", tolPct: 21},
	{exp: "table4", row: "8", col: "cycles/msg", paperCol: "paper cycles/msg", tolPct: 17},
	{exp: "table4", row: "16", col: "cycles/msg", paperCol: "paper cycles/msg", tolPct: 27},
	// Fig 9: the other face of D1 — the paper sustains 91 % of the
	// 35 Gbit/s payload peak, the Table-4-faithful poller 67 %.
	{exp: "fig9", row: "16M", col: "SMI-1hop", paper: 0.91 * 35, tolPct: 27},
	// Fig 13: ~2x for every matrix shape.
	{exp: "fig13", col: "speedup", paperCol: "paper speedup", tolPct: 4},
	// Fig 15: strong scaling 1 / 3.5 / 3.5 / 12.3 / 23.1.
	{exp: "fig15", row: "1 bank / 1 FPGA", col: "speedup", paperCol: "paper speedup"},
	{exp: "fig15", row: "4 banks / 1 FPGA", col: "speedup", paperCol: "paper speedup", tolPct: 3},
	{exp: "fig15", row: "1 bank / 4 FPGAs", col: "speedup", paperCol: "paper speedup", tolPct: 9},
	{exp: "fig15", row: "4 banks / 4 FPGAs", col: "speedup", paperCol: "paper speedup", tolPct: 2},
	{exp: "fig15", row: "4 banks / 8 FPGAs", col: "speedup", paperCol: "paper speedup", tolPct: 3},
}

func TestPaperRows(t *testing.T) {
	column := func(r *Report, name string) int {
		i := slices.Index(r.Header, name)
		if i < 0 {
			t.Fatalf("%s has no column %q (header %v)", r.ID, name, r.Header)
		}
		return i
	}
	checked := map[string]bool{} // "exp/paperCol"
	for _, p := range paperRows {
		r := fullReport(t, p.exp)
		col, matched := column(r, p.col), 0
		for _, row := range r.Rows {
			if p.row != "" && row[0] != p.row {
				continue
			}
			matched++
			got, paper := number(t, row[col]), p.paper
			if p.paperCol != "" {
				paper = number(t, row[column(r, p.paperCol)])
			}
			if dev := 100 * math.Abs(got-paper) / paper; dev > p.tolPct {
				t.Errorf("%s %q %s = %v, paper %v: off by %.2f%%, allowed %v%%", p.exp, row[0], p.col, got, paper, dev, p.tolPct)
			}
		}
		if matched == 0 {
			t.Errorf("%s has no row %q", p.exp, p.row)
		}
		checked[p.exp+"/"+p.paperCol] = true
	}
	// Every published column any report prints must be held to a row above.
	for _, e := range Experiments() {
		for _, h := range fullReport(t, e.ID).Header {
			if strings.HasPrefix(h, "paper") && !checked[e.ID+"/"+h] {
				t.Errorf("%s prints a %q column no paperRows entry checks", e.ID, h)
			}
		}
	}
}

// TestPurity keeps host-dependent fields out of the goldens: the two
// experiments that used to record wall-clock and host columns — one of
// them driving the parallel scheduler's worker goroutines — must print
// and emit identical bytes at GOMAXPROCS 1 and 2.
func TestPurity(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, id := range []string{"scaling", "streaming"} {
		e, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		var text, js [2]string
		for i, procs := range []int{1, 2} {
			runtime.GOMAXPROCS(procs)
			r, err := e.Run(Options{Ranks: []int{8}})
			if err != nil {
				t.Fatalf("%s at GOMAXPROCS=%d: %v", id, procs, err)
			}
			text[i], js[i] = printed(r), string(r.JSON)
		}
		diffLine(t, fmt.Sprintf("%s table at GOMAXPROCS 2 vs 1", id), text[1], text[0])
		diffLine(t, fmt.Sprintf("%s JSON at GOMAXPROCS 2 vs 1", id), js[1], js[0])
	}
}

func TestReportPrint(t *testing.T) {
	r := &Report{
		ID: "x", Title: "t",
		Header: []string{"a", "bb"},
		Rows:   [][]string{{"1", "2"}, {"333", "4"}},
		Notes:  []string{"hello"},
	}
	out := printed(r)
	for _, want := range []string{"== x: t ==", "a", "bb", "333", "note: hello"} {
		if !strings.Contains(out, want) {
			t.Fatalf("printed report missing %q:\n%s", want, out)
		}
	}
}

func TestMetricNameSanitization(t *testing.T) {
	r := &Report{}
	r.metric("speedup_1 bank / 1 FPGA", 1.5)
	if _, ok := r.Metrics["speedup_1_bank_1_FPGA"]; !ok {
		t.Fatalf("metric name not sanitized: %v", r.Metrics)
	}
	for name := range r.Metrics {
		if strings.ContainsAny(name, " \t/") {
			t.Fatalf("metric %q contains forbidden characters", name)
		}
	}
}
