// Package workload is the named-workload registry: every runnable
// application of the reproduction (the §5.3 microbenchmarks and the
// §5.4 applications) registered under a stable name behind one uniform
// run signature. It extracts the per-workload dispatch that used to be
// hand-rolled inside internal/bench, so the smid service, smibench, and
// tests all resolve workloads the same way and produce the same Result
// schema.
//
// Every workload run is deterministic: the simulator is cycle-exact and
// the inputs are synthetic deterministic values, so the same Params
// (including the fault spec and its seed) always yield a bit-identical
// Result — the property smid's replay endpoint serves and verifies.
package workload

import (
	"fmt"
	"sort"

	smi "repro/internal/core"
	"repro/internal/fault"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topology"
)

// Params is the uniform knob set a workload run accepts. Workloads
// interpret Size and Steps in their own units (elements, grid edge,
// matrix dimension; timesteps, rounds) and fall back to registered
// defaults when zero.
type Params struct {
	// Ranks is the number of participating devices.
	Ranks int
	// Size is the problem size in workload units (0 = default).
	Size int
	// Steps is the iteration count in workload units (0 = default).
	Steps int
	// Verify enables output verification where the workload supports it.
	Verify bool
	// Topology is the interconnect; nil picks the workload's default
	// wiring for Ranks devices.
	Topology *topology.Topology
	// RoutingPolicy selects the route generator.
	RoutingPolicy routing.Policy
	// Routes supplies precomputed routing tables matching Topology and
	// RoutingPolicy (the smid warm cache); nil recomputes them.
	Routes *routing.Routes
	// Faults attaches a deterministic fault schedule (workloads with
	// SupportsFaults only).
	Faults *fault.Spec
	// Mode names the point-to-point transfer machinery for workloads
	// with SupportsModes: "packet" (default when empty), "credited",
	// "circuit", or "streaming" (the rendezvous large-message path).
	Mode string
	// BufferElems sizes the endpoint buffer in elements (0 = workload
	// default). For "streaming" it doubles as the eager/rendezvous
	// switchover threshold: only messages larger than the buffer stream.
	BufferElems int
	// StreamBatch is the streaming fragment length in wire words
	// ("streaming" mode only; 0 = port default).
	StreamBatch int
	// Transport names the flow-control transport for workloads with
	// SupportsTransport: "sender-driven" (default when empty) or
	// "receiver-driven" (Homa-style grant pacing). Parsed with
	// transport.Parse.
	Transport string
	// Arbiter names the CK input arbiter: "round-robin" (default when
	// empty) or "skip-idle". Parsed with transport.ParseArbiter.
	Arbiter string
	// Scheduler selects the simulator scheduling mode.
	Scheduler sim.SchedulerKind
	// Shards is the worker-slot count of sim.SchedShardAdaptive (see
	// smi.Config.Shards); 0 keeps the single-engine build.
	Shards int
	// MaxCycles bounds the simulation (0 = workload default).
	MaxCycles int64
	// Progress/ProgressEvery install a cycle-progress observer.
	Progress      func(cycle int64)
	ProgressEvery int64
}

// Result is the normalized outcome of one workload run — the document
// smid serves for a job and smibench -json prints, so the two are
// directly diffable.
type Result struct {
	Workload string  `json:"workload"`
	Ranks    int     `json:"ranks"`
	Size     int     `json:"size"`
	Steps    int     `json:"steps,omitempty"`
	Cycles   int64   `json:"cycles"`
	Micros   float64 `json:"micros"`
	// OutputDigest is an FNV-64a digest over the workload's observable
	// outputs (verified grids, result matrices, headline measurements).
	// Two runs of the same spec must produce equal digests — the
	// bit-identical replay contract.
	OutputDigest string `json:"output_digest"`
	// Metrics carries workload-specific headline numbers (Gbps,
	// ns/point, latency µs, ...).
	Metrics map[string]float64 `json:"metrics,omitempty"`
	// Stats is the full cluster execution record.
	Stats smi.Stats `json:"stats"`
}

// Workload is one registered application.
type Workload struct {
	// Name is the registry key.
	Name string
	// Description is a one-line summary for listings.
	Description string
	// MinRanks is the smallest legal rank count.
	MinRanks int
	// DefaultSize and DefaultSteps fill zero Params fields.
	DefaultSize  int
	DefaultSteps int
	// SupportsFaults reports whether Params.Faults is honored.
	SupportsFaults bool
	// SupportsRoutes reports whether Params.Routes (and RoutingPolicy)
	// are honored — the precondition for smid's route-cache reuse.
	SupportsRoutes bool
	// SupportsModes reports whether the transfer-mode knobs
	// (Params.Mode, BufferElems, StreamBatch) are honored.
	SupportsModes bool
	// SupportsTransport reports whether Params.Transport is honored.
	// Params.Arbiter is accepted by every workload (it only retunes the
	// CK polling order), but selecting a non-default transport on a
	// workload that ignores it would silently measure the wrong thing,
	// so it is rejected unless this flag is set.
	SupportsTransport bool
	// Run executes the workload.
	Run func(Params) (Result, error)
}

var registry = map[string]Workload{}

// Register adds a workload to the registry; duplicate names are a
// programming error.
func Register(w Workload) {
	if _, dup := registry[w.Name]; dup {
		panic(fmt.Sprintf("workload: %q registered twice", w.Name))
	}
	registry[w.Name] = w
}

// Get resolves a workload by name.
func Get(name string) (Workload, error) {
	w, ok := registry[name]
	if !ok {
		return Workload{}, fmt.Errorf("workload: unknown workload %q (have: %v)", name, Names())
	}
	return w, nil
}

// Names lists the registered workload names, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// All lists the registered workloads sorted by name.
func All() []Workload {
	names := Names()
	out := make([]Workload, 0, len(names))
	for _, n := range names {
		out = append(out, registry[n])
	}
	return out
}

// Grid factors ranks into the most even rows × cols decomposition
// (rows <= cols), used for default torus wirings and the stencil rank
// grid.
func Grid(ranks int) (rows, cols int) {
	rows = 1
	for r := 2; r*r <= ranks; r++ {
		if ranks%r == 0 {
			rows = r
		}
	}
	return rows, ranks / rows
}

// DefaultTopology picks a wiring for ranks devices: a 2D torus when the
// rank grid has two real dimensions, otherwise a bus.
func DefaultTopology(ranks int) (*topology.Topology, error) {
	if ranks < 2 {
		return nil, fmt.Errorf("workload: need at least 2 ranks, got %d", ranks)
	}
	rows, cols := Grid(ranks)
	if rows >= 2 && cols >= 2 {
		return topology.Torus2D(rows, cols)
	}
	return topology.Bus(ranks)
}
