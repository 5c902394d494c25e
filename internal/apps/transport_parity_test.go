package apps

import (
	"strings"
	"testing"

	smi "repro/internal/core"
	"repro/internal/fault"
	"repro/internal/routing"
	"repro/internal/topology"
	"repro/internal/transport"
)

// TestTransportSchedulerParity extends the scheduler parity matrix
// (dense oracle vs event and shard-adaptive) to the receiver-driven
// transport: the pacing kernels keep all state engine-local and read
// only committed FIFO state, so cycle counts, packet counts, grant
// counts, and per-flow completions must be bit-identical under every
// scheduler — and identical between transports wherever no paced P2P
// traffic flows (collectives).
func TestTransportSchedulerParity(t *testing.T) {
	topo, err := topology.Torus2D(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	base := NetConfig{Topology: topo, RoutingPolicy: routing.UpDown}
	base.Transport.Kind = transport.ReceiverDrivenKind

	t.Run("incast", func(t *testing.T) {
		results := make([]IncastResult, len(schedVariants))
		for i, sv := range schedVariants {
			cfg := base
			cfg.Scheduler, cfg.Shards = sv.kind, sv.shards
			res, err := Incast(cfg, 4, 2000)
			if err != nil {
				t.Fatalf("%s: %v", sv.name, err)
			}
			results[i] = res
		}
		for i := 1; i < len(results); i++ {
			if results[i].Cycles != results[0].Cycles {
				t.Errorf("%s finished at cycle %d, dense at %d", schedVariants[i].name, results[i].Cycles, results[0].Cycles)
			}
			if results[i].Net.PacketsDelivered != results[0].Net.PacketsDelivered {
				t.Errorf("%s delivered %d packets, dense %d",
					schedVariants[i].name, results[i].Net.PacketsDelivered, results[0].Net.PacketsDelivered)
			}
			if results[i].Net.Grants != results[0].Net.Grants {
				t.Errorf("%s issued %d grants, dense %d",
					schedVariants[i].name, results[i].Net.Grants, results[0].Net.Grants)
			}
			for f := range results[i].FlowCycles {
				if results[i].FlowCycles[f] != results[0].FlowCycles[f] {
					t.Errorf("%s flow %d finished at cycle %d, dense at %d",
						schedVariants[i].name, f, results[i].FlowCycles[f], results[0].FlowCycles[f])
				}
			}
		}
		if results[0].Net.Grants == 0 {
			t.Error("receiver-driven incast issued no grants: pacing never engaged")
		}
		if results[0].Net.Transport != "receiver-driven" {
			t.Errorf("stats report transport %q, want receiver-driven", results[0].Net.Transport)
		}
	})

	t.Run("bandwidth", func(t *testing.T) {
		results := make([]BandwidthResult, len(schedVariants))
		for i, sv := range schedVariants {
			cfg := base
			cfg.Scheduler, cfg.Shards = sv.kind, sv.shards
			cfg.BufferElems = 256 // small buffer: grants must pace the flow
			res, err := Bandwidth(cfg, 0, 5, 20000)
			if err != nil {
				t.Fatalf("%s: %v", sv.name, err)
			}
			results[i] = res
		}
		for i := 1; i < len(results); i++ {
			if results[i].Cycles != results[0].Cycles {
				t.Errorf("%s finished at cycle %d, dense at %d", schedVariants[i].name, results[i].Cycles, results[0].Cycles)
			}
			if results[i].Net.Grants != results[0].Net.Grants {
				t.Errorf("%s issued %d grants, dense %d", schedVariants[i].name, results[i].Net.Grants, results[0].Net.Grants)
			}
		}
		if results[0].Net.Grants == 0 {
			t.Error("20000 elements through a 256-element buffer issued no grants")
		}
		// The parallel leg must actually run on per-rank engines.
		if sh := results[adaptiveVariant].Net.Sched; sh.Shards != 4 || sh.Syncs == 0 {
			t.Errorf("%s run did not run in parallel: shards=%d syncs=%d", schedVariants[adaptiveVariant].name, sh.Shards, sh.Syncs)
		}
	})

	t.Run("bcast", func(t *testing.T) {
		// Collective traffic is unpaced; receiver-driven must match the
		// sender-driven transport cycle for cycle on it.
		sd := NetConfig{Topology: topo, RoutingPolicy: routing.UpDown}
		ref, err := BcastTime(sd, 8, 2000)
		if err != nil {
			t.Fatal(err)
		}
		for _, sv := range schedVariants {
			cfg := base
			cfg.Scheduler, cfg.Shards = sv.kind, sv.shards
			res, err := BcastTime(cfg, 8, 2000)
			if err != nil {
				t.Fatalf("%s: %v", sv.name, err)
			}
			if res.Cycles != ref.Cycles {
				t.Errorf("%s: receiver-driven bcast at cycle %d, sender-driven at %d", sv.name, res.Cycles, ref.Cycles)
			}
			if res.Net.Grants != 0 {
				t.Errorf("%s: unpaced collective issued %d grants", sv.name, res.Net.Grants)
			}
		}
	})
}

// TestReceiverDrivenRejections pins the typed construction errors: the
// receiver-driven transport must fail loudly, not silently fall back to
// sender-driven, when combined with machinery its in-memory pacing ops
// cannot cross.
func TestReceiverDrivenRejections(t *testing.T) {
	topo, _ := topology.Bus(2)
	base := NetConfig{Topology: topo}
	base.Transport.Kind = transport.ReceiverDrivenKind

	t.Run("reliable", func(t *testing.T) {
		cfg := base
		cfg.Reliable = true
		_, err := Bandwidth(cfg, 0, 1, 100)
		if err == nil || !strings.Contains(err.Error(), "receiver-driven") {
			t.Fatalf("receiver-driven + reliable must be rejected, got %v", err)
		}
	})
	t.Run("faults", func(t *testing.T) {
		cfg := base
		cfg.Faults = &fault.Spec{Seed: 1, DropProb: 0.001}
		_, err := Bandwidth(cfg, 0, 1, 100)
		if err == nil || !strings.Contains(err.Error(), "receiver-driven") {
			t.Fatalf("receiver-driven + faults must be rejected, got %v", err)
		}
	})
	t.Run("circuit", func(t *testing.T) {
		cfg := base
		cfg.Mode = smi.ModeCircuit
		_, err := Bandwidth(cfg, 0, 1, 100)
		if err == nil || !strings.Contains(err.Error(), "receiver-driven") {
			t.Fatalf("receiver-driven + circuit must be rejected, got %v", err)
		}
	})
	t.Run("streaming", func(t *testing.T) {
		cfg := base
		cfg.Mode = smi.ModeStreaming
		_, err := Bandwidth(cfg, 0, 1, 100)
		if err == nil || !strings.Contains(err.Error(), "receiver-driven") {
			t.Fatalf("receiver-driven + streaming must be rejected, got %v", err)
		}
	})
	t.Run("credited-allowed", func(t *testing.T) {
		cfg := base
		cfg.Mode = smi.ModeCredited
		cfg.BufferElems = 64
		if _, err := Bandwidth(cfg, 0, 1, 500); err != nil {
			t.Fatalf("credited mode composes with receiver-driven pacing: %v", err)
		}
	})
}

// TestIncastEagerDeadlockMotivation documents why the ablation exists:
// the same eager incast that deadlocks under the sender-driven
// transport (receiver drains flows in order, undrained flows
// head-of-line-block the fabric — §3.3's motivating pathology) runs to
// completion under receiver-driven pacing with no application-level
// credit protocol.
func TestIncastEagerDeadlockMotivation(t *testing.T) {
	topo, _ := topology.Bus(5)
	sd := NetConfig{Topology: topo, MaxCycles: 500_000}
	if _, err := Incast(sd, 4, 3000); err == nil {
		t.Fatal("eager sender-driven 4:1 incast should deadlock on sequential drain")
	}
	rd := NetConfig{Topology: topo, MaxCycles: 500_000}
	rd.Transport.Kind = transport.ReceiverDrivenKind
	res, err := Incast(rd, 4, 3000)
	if err != nil {
		t.Fatalf("receiver-driven eager incast must complete: %v", err)
	}
	if res.Net.Grants == 0 {
		t.Error("incast completed without grants: pacing never engaged")
	}
}
