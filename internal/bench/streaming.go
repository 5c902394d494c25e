package bench

import (
	"fmt"

	"repro/internal/apps"
	smi "repro/internal/core"
	"repro/internal/topology"
)

func init() {
	registerJSON("streaming", "BENCH_streaming.json",
		"Large-message ablation: packet vs circuit vs streaming across message sizes", runStreaming)
}

// streamingModes are the transfer machineries the ablation compares on
// the same multi-hop path with the same (small) endpoint buffer. The
// "packet" row is the credit-based packet path — what §3.3 prescribes
// when the buffer is smaller than the message; "packet-eager" shows the
// same packet format with backpressure-only flow control, which is fast
// but lets large transfers squat in the shared transport.
var streamingModes = []struct {
	name string
	mode smi.Mode
}{
	{"packet", smi.ModeCredited},
	{"packet-eager", smi.ModePacket},
	{"circuit", smi.ModeCircuit},
	{"streaming", smi.ModeStreaming},
}

type streamingRow struct {
	Mode            string  `json:"mode"`
	Bytes           int64   `json:"bytes"`
	Elems           int     `json:"elems"`
	Cycles          int64   `json:"cycles"`
	Gbps            float64 `json:"gbps"`
	SpeedupVsPacket float64 `json:"speedup_vs_packet"`
	StreamFragments uint64  `json:"stream_fragments,omitempty"`
}

// runStreaming sweeps message sizes over a 4-device bus (rank 0 to rank
// 3: three hops, two intermediate cut-through kernels) with a
// 64-element endpoint buffer, so every size beyond 256 B dwarfs the
// buffer — the large-message regime the streaming path exists for.
func runStreaming(Options) (*Report, error) {
	sizes := []int{256, 1024, 8192, 65536} // ints: 1 KiB .. 256 KiB
	const bufferElems = 64

	r := &Report{
		ID:     "streaming",
		Title:  "Large-message transfer ablation (bus of 4, rank 0 -> rank 3, 64-element buffer)",
		Header: []string{"mode", "size", "cycles", "Gbit/s", "speedup"},
	}

	doc := struct {
		Topology    string         `json:"topology"`
		Hops        int            `json:"hops"`
		BufferElems int            `json:"buffer_elems"`
		Rows        []streamingRow `json:"rows"`
		Notes       []string       `json:"notes"`
	}{Topology: "bus(4)", BufferElems: bufferElems}

	for _, elems := range sizes {
		packetCycles := int64(0)
		for _, m := range streamingModes {
			topo, err := topology.Bus(4)
			if err != nil {
				return nil, err
			}
			cfg := apps.NetConfig{
				Topology:    topo,
				VecWidth:    8,
				BufferElems: bufferElems,
				Mode:        m.mode,
			}
			res, err := apps.Bandwidth(cfg, 0, 3, elems)
			if err != nil {
				return nil, fmt.Errorf("streaming: %s/%d: %w", m.name, elems, err)
			}
			if m.name == "packet" {
				packetCycles = res.Cycles
			}
			speedup := float64(packetCycles) / float64(res.Cycles)
			row := streamingRow{
				Mode:            m.name,
				Bytes:           res.Bytes,
				Elems:           elems,
				Cycles:          res.Cycles,
				Gbps:            res.Gbps,
				SpeedupVsPacket: speedup,
				StreamFragments: res.Net.StreamFragments,
			}
			doc.Rows = append(doc.Rows, row)
			doc.Hops = res.Hops
			r.Rows = append(r.Rows, []string{
				m.name, human(res.Bytes), fmt.Sprint(res.Cycles),
				f2(res.Gbps), f2(speedup) + "x",
			})
			if m.name == "streaming" {
				r.metric(fmt.Sprintf("streaming_speedup_%s", human(res.Bytes)), speedup)
			}
		}
	}

	doc.Notes = []string{
		"packet = credit-based flow control, the paper's §3.3 prescription when the endpoint buffer is smaller than the message: every buffer's worth of data costs a grant round-trip across the full path.",
		"packet-eager = the default eager packet path (backpressure-only): fast, but a large message occupies the shared transport for its whole duration.",
		"streaming = rendezvous handshake, then OpStream fragment trains of full 32-byte raw words cut through intermediate kernels; the rendezvous round-trip is why small messages lose and the eager/rendezvous switchover exists.",
		"speedup is cycles(packet)/cycles(mode) at the same size; the >=2x acceptance gate for >=4 KiB messages is measured against the packet (credited) row.",
	}
	r.Notes = append(r.Notes,
		"packet = credited (§3.3's prescription for messages larger than the buffer); packet-eager shown for honesty — it wins on raw cycles but squats in the shared transport (see TestStreamingFairerThanCircuit).",
		"streaming pays one rendezvous round-trip up front, so its advantage grows with message size.",
	)

	var err error
	r.JSON, err = marshalDoc(&doc)
	return r, err
}
