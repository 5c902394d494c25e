// Package bench regenerates every table and figure of the paper's
// evaluation (§5). Each experiment produces a Report with the same rows
// or series the paper presents, alongside the paper's published numbers
// where applicable, so EXPERIMENTS.md can compare shape (who wins, by
// what factor, where crossovers fall) directly.
package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

// Options control an experiment run.
type Options struct {
	// Ranks restricts rank-count sweeps (the scaling experiment) to the
	// listed sizes; empty means the experiment's default sweep.
	Ranks []int
	// Workload restricts multi-workload experiments (the scaling
	// experiment) to one workload; empty means all.
	Workload string
	// Shards overrides the shard-adaptive worker count of the parallel
	// rows in rank sweeps (0 = the experiment's default of 4).
	Shards int
	// Transport restricts the transport ablation to one transport
	// ("sender-driven" or "receiver-driven"); empty measures both.
	Transport string
}

// Report is the regenerated form of one table or figure.
type Report struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
	// Metrics carries headline numbers (smibench -json emits them).
	Metrics map[string]float64
	// JSON, when non-nil, is a machine-readable form of the report;
	// smibench writes it into the working directory under the
	// experiment's JSONFile name. Tests never write it.
	JSON []byte
}

// metric records a headline number. Names are sanitized to carry no
// whitespace or slashes.
func (r *Report) metric(name string, v float64) {
	if r.Metrics == nil {
		r.Metrics = make(map[string]float64)
	}
	clean := strings.Map(func(c rune) rune {
		switch c {
		case ' ', '\t', '/':
			return '_'
		default:
			return c
		}
	}, name)
	for strings.Contains(clean, "__") {
		clean = strings.ReplaceAll(clean, "__", "_")
	}
	r.Metrics[clean] = v
}

// Print renders the report as an aligned text table.
func (r *Report) Print(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", r.ID, r.Title)
	widths := make([]int, len(r.Header))
	for i, h := range r.Header {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, cell := range cells {
			if i < len(widths) {
				parts[i] = fmt.Sprintf("%-*s", widths[i], cell)
			} else {
				parts[i] = cell
			}
		}
		fmt.Fprintln(w, "  "+strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(r.Header)
	for _, row := range r.Rows {
		line(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// Experiment is one regenerable table or figure. Its report is a pure
// function of the simulator: no experiment reads a clock or the host, so
// the committed results_full.txt section (and JSONFile) must reproduce
// byte for byte on any machine.
type Experiment struct {
	ID    string
	Title string
	// JSONFile names the committed machine-readable copy of the report
	// at the repository root ("" when the experiment emits none).
	JSONFile string
	Run      func(Options) (*Report, error)
}

var registry = map[string]Experiment{}

func register(id, title string, run func(Options) (*Report, error)) {
	registry[id] = Experiment{ID: id, Title: title, Run: run}
}

// registerJSON registers an experiment whose report carries a JSON
// document committed as jsonFile.
func registerJSON(id, jsonFile, title string, run func(Options) (*Report, error)) {
	registry[id] = Experiment{ID: id, Title: title, JSONFile: jsonFile, Run: run}
}

// marshalDoc renders a report's JSON document the way it is committed:
// indented, newline-terminated.
func marshalDoc(doc any) ([]byte, error) {
	js, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(js, '\n'), nil
}

// Experiments lists all registered experiments sorted by ID.
func Experiments() []Experiment {
	out := make([]Experiment, 0, len(registry))
	for _, e := range registry {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ByID returns the experiment with the given ID.
func ByID(id string) (Experiment, error) {
	e, ok := registry[id]
	if !ok {
		var ids []string
		for _, e := range Experiments() {
			ids = append(ids, e.ID)
		}
		return Experiment{}, fmt.Errorf("bench: unknown experiment %q (have: %s)", id, strings.Join(ids, ", "))
	}
	return e, nil
}

// formatting helpers

func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string { return fmt.Sprintf("%.3f", v) }

func human(bytes int64) string {
	switch {
	case bytes >= 1<<20:
		return fmt.Sprintf("%dM", bytes>>20)
	case bytes >= 1<<10:
		return fmt.Sprintf("%dK", bytes>>10)
	default:
		return fmt.Sprintf("%d", bytes)
	}
}

// parseF parses a formatted cell back into a float (0 on failure).
func parseF(s string) float64 {
	var v float64
	fmt.Sscanf(s, "%g", &v)
	return v
}
