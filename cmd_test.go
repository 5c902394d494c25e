package repro

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"testing"

	"repro/internal/bench"
)

// runTool runs one of the repository's commands via `go run`, feeding it
// stdin and returning stdout.
func runTool(t *testing.T, stdin string, args ...string) string {
	t.Helper()
	cmd := exec.Command("go", append([]string{"run"}, args...)...)
	cmd.Dir = "."
	cmd.Stdin = strings.NewReader(stdin)
	var out, errb bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errb
	if err := cmd.Run(); err != nil {
		t.Fatalf("%v failed: %v\nstderr: %s", args, err, errb.String())
	}
	return out.String()
}

func TestWorkflowToolchain(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	// topogen -> routegen mirrors the paper's Fig 8 workflow.
	topo := runTool(t, "", "./cmd/topogen", "-kind", "torus", "-rows", "2", "-cols", "4")
	if !strings.Contains(topo, `"devices": 8`) {
		t.Fatalf("topogen output unexpected:\n%s", topo)
	}
	routes := runTool(t, topo, "./cmd/routegen", "-policy", "updown")
	if !strings.Contains(routes, `"next"`) {
		t.Fatalf("routegen output unexpected:\n%s", routes)
	}
	verify := runTool(t, topo, "./cmd/routegen", "-policy", "updown", "-verify")
	if !strings.Contains(verify, "deadlock-free: yes") {
		t.Fatalf("updown routes must verify deadlock-free:\n%s", verify)
	}
}

func TestSmigenPlan(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	ops := `{"ifaces": 4, "ports": [
		{"port": 0, "kind": "p2p", "type": "float"},
		{"port": 1, "kind": "reduce", "type": "float", "op": "add"}
	]}`
	out := runTool(t, ops, "./cmd/smigen")
	for _, want := range []string{"4 CKS + 4 CKR", "port 0", "reduce support kernel", "estimated resources"} {
		if !strings.Contains(out, want) {
			t.Fatalf("smigen plan missing %q:\n%s", want, out)
		}
	}
}

// TestSmibenchQuickTable drives one cheap experiment through the CLI:
// stdout is the report and nothing else (timing goes to stderr, so `all
// > results_full.txt` regenerates the golden), and the removed -quick
// flag is rejected rather than silently ignored.
func TestSmibenchQuickTable(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	out := runTool(t, "", "./cmd/smibench", "table4")
	e, err := bench.ByID("table4")
	if err != nil {
		t.Fatal(err)
	}
	r, err := e.Run(bench.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	r.Print(&want)
	if out != want.String() {
		t.Fatalf("smibench table4 stdout is not exactly the report:\n%s\nwant:\n%s", out, want.String())
	}
	cmd := exec.Command("go", "run", "./cmd/smibench", "-quick", "table4")
	if msg, err := cmd.CombinedOutput(); err == nil || !strings.Contains(string(msg), "flag provided but not defined: -quick") {
		t.Fatalf("smibench -quick should be rejected as an unknown flag, got err=%v:\n%s", err, msg)
	}
}

// TestSmibenchList holds `smibench -list` to the registry, whose IDs
// internal/bench's TestRegistryComplete in turn holds to the committed
// goldens — no hand-kept experiment list anywhere.
func TestSmibenchList(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	var want strings.Builder
	for _, e := range bench.Experiments() {
		fmt.Fprintf(&want, "%-8s %s\n", e.ID, e.Title)
	}
	if out := runTool(t, "", "./cmd/smibench", "-list"); out != want.String() {
		t.Fatalf("smibench -list:\n%s\nwant the registry:\n%s", out, want.String())
	}
}

// TestSmibenchJSON checks that -json emits the machine-readable form on
// stdout, carrying the same per-workload Result schema smid serves.
func TestSmibenchJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	out := runTool(t, "", "./cmd/smibench", "-json", "workloads")
	var doc []struct {
		ID   string `json:"id"`
		Data []struct {
			Workload     string         `json:"workload"`
			Cycles       int64          `json:"cycles"`
			OutputDigest string         `json:"output_digest"`
			Stats        map[string]any `json:"stats"`
		} `json:"data"`
	}
	if err := json.Unmarshal([]byte(out), &doc); err != nil {
		t.Fatalf("-json output not valid JSON: %v\n%s", err, out)
	}
	if len(doc) != 1 || doc[0].ID != "workloads" || len(doc[0].Data) == 0 {
		t.Fatalf("-json document unexpected:\n%s", out)
	}
	for _, res := range doc[0].Data {
		if res.Cycles <= 0 || res.OutputDigest == "" {
			t.Fatalf("result %q incomplete: %+v", res.Workload, res)
		}
		if _, ok := res.Stats["packets_delivered"]; res.Workload == "bandwidth" && !ok {
			t.Fatalf("bandwidth result missing cluster stats:\n%s", out)
		}
	}
}

func TestSmitraceWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	dir := t.TempDir()
	for _, w := range []string{"pingpong", "reduce"} {
		out := dir + "/" + w + ".json"
		res := runTool(t, "", "./cmd/smitrace", "-workload", w, "-out", out)
		if !strings.Contains(res, "traced "+w) {
			t.Fatalf("unexpected smitrace output: %s", res)
		}
		data, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		var parsed map[string]any
		if err := json.Unmarshal(data, &parsed); err != nil {
			t.Fatalf("%s trace not valid JSON: %v", w, err)
		}
		if _, ok := parsed["traceEvents"]; !ok {
			t.Fatalf("%s trace missing traceEvents", w)
		}
	}
}
