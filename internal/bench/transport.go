package bench

import (
	"fmt"
	"strings"

	"repro/internal/fault"
	"repro/internal/topology"
	"repro/internal/transport"
	"repro/internal/workload"
)

func init() {
	registerJSON("ablate-transport", "BENCH_transport.json",
		"Ablation: sender-driven vs receiver-driven (Homa-style) transport under incast", ablateTransport)
}

// TransportRow is one (workload, senders, transport) measurement of the
// transport ablation.
type TransportRow struct {
	Workload  string `json:"workload"`
	Senders   int    `json:"senders,omitempty"`
	Transport string `json:"transport"`
	Mode      string `json:"mode"`
	// Elems is the problem size in elements (per flow for incast).
	Elems  int   `json:"elems"`
	Cycles int64 `json:"cycles"`
	// TailCycles/MeanCycles are the incast per-flow completion spread —
	// the numbers receiver-driven pacing exists to cut.
	TailCycles int64   `json:"tail_cycles,omitempty"`
	MeanCycles float64 `json:"mean_cycles,omitempty"`
	Grants     uint64  `json:"grants"`
	Delivered  uint64  `json:"packets_delivered"`
}

// transportJSON is the BENCH_transport.json document.
type transportJSON struct {
	Description string         `json:"description"`
	Rows        []TransportRow `json:"rows"`
	// TailSpeedup maps the sender count to sender-driven-credited tail
	// cycles / receiver-driven tail cycles on the N:1 incast — the
	// ablation's headline. Must exceed 1 at every measured N >= 8.
	TailSpeedup map[string]float64 `json:"incast_tail_speedup"`
	// FaultLegRejected records that the receiver-driven + faults
	// combination failed loudly (its pacing ops have no wire encoding),
	// while the sender-driven fault leg ran.
	FaultLegRejected bool `json:"receiver_driven_fault_leg_rejected"`
}

// ablateTransport compares the two transports the cluster can build:
// the paper's sender-driven CKS/CKR pipeline (with application-level
// credit flow control as the incast-safe baseline) and the
// receiver-driven ablation, where receivers observe announced demand
// and pace senders with grant packets, SRPT-ordered by remaining
// message size with an unscheduled first window.
//
// The key workload is the N:1 incast with a sequentially-draining
// aggregator: eager sender-driven traffic deadlocks on it (§3.3's
// pathology — documented, not measured), credited traffic pays a
// round-trip per credit tile, and receiver-driven pacing holds the
// backlog at the senders. The bandwidth leg shows grants pacing a
// single deep flow; the bcast leg pins the zero-overhead claim:
// collective traffic is unpaced and must match sender-driven cycle for
// cycle. The fault leg asserts the loud-failure contract — a job asking
// for receiver-driven pacing over lossy links is rejected, never
// silently downgraded.
func ablateTransport(opts Options) (*Report, error) {
	sendersSet := []int{4, 8, 16}
	const elems = 3000
	kinds := []transport.Kind{transport.SenderDrivenKind, transport.ReceiverDrivenKind}
	if opts.Transport != "" {
		k, err := transport.Parse(opts.Transport)
		if err != nil {
			return nil, fmt.Errorf("ablate-transport: %v", err)
		}
		kinds = []transport.Kind{k}
	}
	both := len(kinds) == 2

	r := &Report{
		ID:     "ablate-transport",
		Title:  "Transport ablation: sender-driven (credited) vs receiver-driven (Homa-style grants)",
		Header: []string{"workload", "senders", "transport", "mode", "cycles", "tail", "mean", "grants", "delivered"},
		Notes: []string{
			"incast drains flows sequentially: eager sender-driven traffic deadlocks on it,",
			"credited traffic pays a round-trip per tile, receiver-driven grants (SRPT order,",
			"unscheduled first window) hold the backlog at the senders; the solo bandwidth",
			"flow shows the cost side (grant round-trips throttle a single deep flow); bcast",
			"is unpaced and must match the sender-driven transport cycle for cycle",
		},
	}
	doc := transportJSON{
		Description: "smibench transport ablation: N:1 incast, deep single-flow bandwidth, and unpaced broadcast under the sender-driven and receiver-driven transports; tail/mean are per-flow completion cycles at the sequentially-draining aggregator",
		TailSpeedup: map[string]float64{},
	}

	// run dispatches through the workload registry (the same resolution
	// path smid uses) and enforces the loud-failure contract: the stats
	// must name the transport that was requested — a silent fallback to
	// sender-driven fails the experiment, it never produces a row.
	run := func(name string, p workload.Params, kind transport.Kind) (workload.Result, error) {
		p.Transport = kind.String()
		res, err := workload.Run(name, p)
		if err != nil {
			return res, fmt.Errorf("ablate-transport: %s under %s: %w", name, kind, err)
		}
		if res.Stats.Transport != kind.String() {
			return res, fmt.Errorf("ablate-transport: asked for the %s transport, cluster built %q — silent fallback",
				kind, res.Stats.Transport)
		}
		if kind == transport.ReceiverDrivenKind && res.Stats.Grants == 0 && name != "bcast" {
			return res, fmt.Errorf("ablate-transport: receiver-driven %s issued no grants — pacing never engaged", name)
		}
		if kind == transport.SenderDrivenKind && res.Stats.Grants != 0 {
			return res, fmt.Errorf("ablate-transport: sender-driven %s reported %d grants", name, res.Stats.Grants)
		}
		return res, nil
	}
	row := func(name string, senders, elems int, kind transport.Kind, mode string, res workload.Result) {
		tr := TransportRow{
			Workload: name, Senders: senders, Transport: kind.String(), Mode: mode,
			Elems:      elems,
			Cycles:     res.Cycles,
			TailCycles: int64(res.Metrics["tail_cycles"]),
			MeanCycles: res.Metrics["mean_cycles"],
			Grants:     res.Stats.Grants,
			Delivered:  res.Stats.PacketsDelivered,
		}
		doc.Rows = append(doc.Rows, tr)
		sd := "-"
		if senders > 0 {
			sd = fmt.Sprint(senders)
		}
		tail, mean := "-", "-"
		if tr.TailCycles > 0 {
			tail, mean = fmt.Sprint(tr.TailCycles), f1(tr.MeanCycles)
		}
		r.Rows = append(r.Rows, []string{
			name, sd, kind.String(), mode, fmt.Sprint(res.Cycles), tail, mean,
			fmt.Sprint(tr.Grants), fmt.Sprint(tr.Delivered),
		})
	}

	// N:1 incast on a bus (every flow shares the aggregator's cable —
	// the congestion is at the endpoint, not the fabric).
	for _, n := range sendersSet {
		topo, err := topology.Bus(n + 1)
		if err != nil {
			return nil, err
		}
		p := workload.Params{Ranks: n + 1, Size: elems, Topology: topo}
		tails := map[transport.Kind]int64{}
		for _, kind := range kinds {
			mode := "credited" // the registry's safe sender-driven default
			if kind == transport.ReceiverDrivenKind {
				mode = "packet" // eager is safe under pacing
			}
			res, err := run("incast", p, kind)
			if err != nil {
				return nil, err
			}
			row("incast", n, elems, kind, mode, res)
			tails[kind] = int64(res.Metrics["tail_cycles"])
		}
		if both {
			sp := float64(tails[transport.SenderDrivenKind]) / float64(tails[transport.ReceiverDrivenKind])
			doc.TailSpeedup[fmt.Sprint(n)] = sp
			r.metric(fmt.Sprintf("incast_tail_speedup_%d", n), sp)
			if n >= 8 && sp <= 1 {
				return nil, fmt.Errorf("ablate-transport: receiver-driven tail at %d:1 is %d cycles, sender-driven credited %d — no tail win",
					n, tails[transport.ReceiverDrivenKind], tails[transport.SenderDrivenKind])
			}
		}
	}

	// Deep single flow through a small buffer: the cost side of the
	// trade-off. Pacing a solo flow buys nothing (there is no incast to
	// defuse) and the grant round-trips throttle it — the cycle ratio
	// metric records how much.
	const bwElems = 20000
	bwCycles := map[transport.Kind]int64{}
	for _, kind := range kinds {
		p := workload.Params{Ranks: 4, Size: bwElems, BufferElems: 256}
		res, err := run("bandwidth", p, kind)
		if err != nil {
			return nil, err
		}
		row("bandwidth", 0, bwElems, kind, "packet", res)
		bwCycles[kind] = res.Cycles
	}
	if both {
		r.metric("bandwidth_cycle_ratio",
			float64(bwCycles[transport.ReceiverDrivenKind])/float64(bwCycles[transport.SenderDrivenKind]))
	}

	// Unpaced collective: the receiver-driven transport builds no pacing
	// hardware on pure-collective ranks and must match cycle for cycle.
	bcCycles := map[transport.Kind]int64{}
	for _, kind := range kinds {
		p := workload.Params{Ranks: 8, Size: 2000}
		res, err := run("bcast", p, kind)
		if err != nil {
			return nil, err
		}
		row("bcast", 0, 2000, kind, "packet", res)
		bcCycles[kind] = res.Cycles
	}
	if both && bcCycles[transport.SenderDrivenKind] != bcCycles[transport.ReceiverDrivenKind] {
		return nil, fmt.Errorf("ablate-transport: unpaced bcast diverged: sender-driven %d cycles, receiver-driven %d",
			bcCycles[transport.SenderDrivenKind], bcCycles[transport.ReceiverDrivenKind])
	}

	// Fault leg: the sender-driven transport runs over lossy links; the
	// receiver-driven transport must be rejected loudly (its pacing ops
	// have no wire encoding), never silently downgraded.
	flap := &fault.Spec{Seed: 3, DropProb: 1e-3}
	sdFault, err := run("incast", workload.Params{Ranks: 5, Size: 1000, Faults: flap}, transport.SenderDrivenKind)
	if err != nil {
		return nil, err
	}
	row("incast+faults", 4, 1000, transport.SenderDrivenKind, "credited", sdFault)
	if _, err := workload.Run("incast", workload.Params{
		Ranks: 5, Size: 1000, Faults: flap, Transport: transport.ReceiverDrivenKind.String(),
	}); err == nil {
		return nil, fmt.Errorf("ablate-transport: receiver-driven + faults was accepted — the loud-failure contract is broken")
	} else if !strings.Contains(err.Error(), "receiver-driven") {
		return nil, fmt.Errorf("ablate-transport: receiver-driven + faults rejected with an unrelated error: %v", err)
	}
	doc.FaultLegRejected = true
	r.Notes = append(r.Notes,
		"receiver-driven + faults is rejected at admission (pacing ops have no wire",
		"encoding to protect); the sender-driven fault leg ran in its place")

	r.JSON, err = marshalDoc(doc)
	return r, err
}
