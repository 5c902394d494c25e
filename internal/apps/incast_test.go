package apps

import (
	"testing"

	smi "repro/internal/core"
	"repro/internal/topology"
)

// TestIncastEagerDeadlockMotivation documents §3.3's motivating
// pathology: an eager 4:1 incast whose receiver drains flows in order
// deadlocks, because undrained flows head-of-line-block the fabric. The
// credited mode the incast workload defaults to runs the same incast to
// completion.
func TestIncastEagerDeadlockMotivation(t *testing.T) {
	topo, _ := topology.Bus(5)
	eager := NetConfig{Topology: topo, MaxCycles: 500_000}
	if _, err := Incast(eager, 4, 3000); err == nil {
		t.Fatal("eager 4:1 incast should deadlock on sequential drain")
	}
	credited := NetConfig{Topology: topo, MaxCycles: 500_000, Mode: smi.ModeCredited}
	if _, err := Incast(credited, 4, 3000); err != nil {
		t.Fatalf("credited incast must complete: %v", err)
	}
}
