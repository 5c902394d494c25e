package service

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/workload"
)

// JobSpec is the JSON document a client submits to run one simulation
// job. It is the complete, self-contained description of the run: the
// stored spec alone is enough to re-execute the job bit-identically,
// which is what the replay endpoint does.
type JobSpec struct {
	// Workload names a registered workload (GET /v1/workloads lists
	// them).
	Workload string `json:"workload"`
	// Ranks is the number of participating devices.
	Ranks int `json:"ranks"`
	// Size and Steps are the workload's problem-size knobs (0 picks the
	// workload default).
	Size  int `json:"size,omitempty"`
	Steps int `json:"steps,omitempty"`
	// Verify enables output verification where supported.
	Verify bool `json:"verify,omitempty"`
	// Seed overrides the fault spec's seed when nonzero, so one stored
	// fault schedule can be replayed under different noise streams.
	Seed int64 `json:"seed,omitempty"`
	// Topology describes the wiring declaratively; nil picks the
	// workload's default wiring for Ranks devices.
	Topology *topology.Spec `json:"topology,omitempty"`
	// RoutingPolicy is "shortest-path" (default) or "updown".
	RoutingPolicy string `json:"routing_policy,omitempty"`
	// Scheduler is "event" (default) or "shard-adaptive" (conservative
	// parallel simulation: one engine per rank multiplexed onto Shards
	// worker slots with per-boundary lookahead and deterministic work
	// stealing).
	Scheduler string `json:"scheduler,omitempty"`
	// Shards is the worker-slot count of "shard-adaptive": required to
	// be in [1, ranks] under that scheduler, and must be left zero
	// otherwise. Fault-injected jobs run in parallel like any other: the
	// reliable links split into per-engine transmit/receive halves.
	Shards int `json:"shards,omitempty"`
	// Faults attaches a deterministic fault-injection schedule.
	Faults *fault.Spec `json:"faults,omitempty"`
	// MaxCycles bounds the simulation (0 = workload default).
	MaxCycles int64 `json:"max_cycles,omitempty"`
	// Mode selects the point-to-point transfer machinery for workloads
	// that support it (bandwidth): "packet" (default), "credited",
	// "circuit", or "streaming" (rendezvous + cut-through fragments).
	Mode string `json:"mode,omitempty"`
	// BufferElems sizes the endpoint buffer in elements (0 = workload
	// default); with mode "streaming" it is also the eager/rendezvous
	// switchover threshold.
	BufferElems int `json:"buffer_elems,omitempty"`
	// StreamBatch is the streaming fragment length in 32-byte wire
	// words (mode "streaming" only; 0 = port default).
	StreamBatch int `json:"stream_batch,omitempty"`
	// Arbiter selects the CK input arbiter: "round-robin" (default) or
	// "skip-idle".
	Arbiter string `json:"arbiter,omitempty"`
}

// parsePolicy maps the wire name to a routing policy.
func parsePolicy(s string) (routing.Policy, error) {
	switch s {
	case "", "shortest", "shortest-path":
		return routing.ShortestPath, nil
	case "updown", "up-down", "up*/down*":
		return routing.UpDown, nil
	default:
		return 0, fmt.Errorf("unknown routing policy %q (have shortest-path, updown)", s)
	}
}

// parseScheduler maps the wire name to a scheduler kind.
func parseScheduler(s string) (sim.SchedulerKind, error) {
	switch s {
	case "", "event":
		return sim.SchedEvent, nil
	case "shard-adaptive":
		return sim.SchedShardAdaptive, nil
	default:
		return 0, fmt.Errorf("unknown scheduler %q (have event, shard-adaptive)", s)
	}
}

// resolved is a JobSpec with every declarative field constructed: the
// worker's run plan. Resolution is deterministic, so resolving the same
// spec twice (submit and replay) yields identical plans.
type resolved struct {
	workload workload.Workload
	topo     *topology.Topology
	policy   routing.Policy
	sched    sim.SchedulerKind
	shards   int
	faults   *fault.Spec
}

// resolve validates the spec and constructs the run plan. Every failure
// is an InvalidSpec service error: a malformed submission fails the
// request, it never reaches (or kills) a worker.
func (s *JobSpec) resolve() (resolved, error) {
	var r resolved
	w, err := workload.Get(s.Workload)
	if err != nil {
		return r, errf(InvalidSpec, "%v", err)
	}
	r.workload = w
	if s.Size < 0 || s.Steps < 0 || s.MaxCycles < 0 {
		return r, errf(InvalidSpec, "negative size, steps, or max_cycles")
	}
	// Mode, arbiter and fault legality is the registry's decision, not
	// the service's: what Run would reject fails the request here.
	if err := workload.Validate(w, workload.Params{
		Ranks: s.Ranks, Mode: s.Mode, BufferElems: s.BufferElems, StreamBatch: s.StreamBatch,
		Arbiter: s.Arbiter, Faults: s.Faults,
	}); err != nil {
		return r, errf(InvalidSpec, "%v", err)
	}
	if r.policy, err = parsePolicy(s.RoutingPolicy); err != nil {
		return r, errf(InvalidSpec, "%v", err)
	}
	if r.sched, err = parseScheduler(s.Scheduler); err != nil {
		return r, errf(InvalidSpec, "%v", err)
	}
	if r.sched == sim.SchedShardAdaptive {
		switch {
		case s.Shards <= 0:
			return r, errf(InvalidSpec, "scheduler %q needs a positive shard count, got %d", s.Scheduler, s.Shards)
		case s.Shards > s.Ranks:
			return r, errf(InvalidSpec, "%d shards exceed the job's %d ranks", s.Shards, s.Ranks)
		}
		r.shards = s.Shards
	} else if s.Shards != 0 {
		return r, errf(InvalidSpec, "shards is only valid with scheduler \"shard-adaptive\", got shards=%d with scheduler %q", s.Shards, s.Scheduler)
	}
	if s.Topology != nil {
		if r.topo, err = s.Topology.Build(); err != nil {
			return r, errf(InvalidSpec, "%v", err)
		}
		if r.topo.Devices < s.Ranks {
			return r, errf(InvalidSpec, "topology has %d devices, job needs %d ranks", r.topo.Devices, s.Ranks)
		}
		if !r.topo.Connected() {
			return r, errf(InvalidSpec, "topology is not connected")
		}
	} else if s.Ranks >= 2 {
		if r.topo, err = workload.DefaultTopology(s.Ranks); err != nil {
			return r, errf(InvalidSpec, "%v", err)
		}
	}
	if s.Faults != nil {
		if err := s.Faults.Validate(); err != nil {
			return r, errf(InvalidSpec, "%v", err)
		}
		// Copy before overriding the seed: the stored spec must stay
		// exactly what the client submitted.
		f := *s.Faults
		if s.Seed != 0 {
			f.Seed = s.Seed
		}
		f.Events = append([]fault.Event(nil), s.Faults.Events...)
		r.faults = &f
	}
	return r, nil
}
