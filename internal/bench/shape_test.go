package bench

import (
	"encoding/json"
	"strings"
	"testing"
)

// Shape tests: who wins, by roughly what factor, where crossovers fall —
// the claims EXPERIMENTS.md makes in prose, read off the same full-size
// reports TestGolden pins byte for byte.

func TestTable3Shape(t *testing.T) {
	r := fullReport(t, "table3")
	host := cell(t, r, 0, 1)
	smi1 := cell(t, r, 1, 1)
	smi4 := cell(t, r, 2, 1)
	smi7 := cell(t, r, 3, 1)
	if !(smi1 < smi4 && smi4 < smi7) {
		t.Fatalf("latency must grow with hops: %f %f %f", smi1, smi4, smi7)
	}
	// Paper ratio: 36.61 / 5.103 ~ 7x at seven hops, ~46x at one hop.
	if host < 5*smi7 || host < 20*smi1 {
		t.Fatalf("host latency (%f) should dwarf SMI (%f / %f)", host, smi1, smi7)
	}
	// Near-linear growth with hops, as in the paper.
	perHop1 := smi1
	perHop47 := (smi7 - smi4) / 3
	if perHop47 < 0.5*perHop1 || perHop47 > 2*perHop1 {
		t.Fatalf("latency not linear in hops: %f vs %f per hop", perHop1, perHop47)
	}
}

func TestTable4Shape(t *testing.T) {
	r := fullReport(t, "table4")
	prev := 1e9
	for i := range r.Rows {
		v := cell(t, r, i, 1)
		if v >= prev {
			t.Fatalf("injection latency must fall with R: row %d = %f", i, v)
		}
		prev = v
	}
}

func TestFig9Shape(t *testing.T) {
	r := fullReport(t, "fig9")
	last := len(r.Rows) - 1
	smi1 := cell(t, r, last, 1)
	smi7 := cell(t, r, last, 3)
	host := cell(t, r, last, 4)
	// Bandwidth independent of hops; SMI beats the host path.
	if diff := (smi1 - smi7) / smi1; diff > 0.05 || diff < -0.05 {
		t.Fatalf("bandwidth varies with hops: %f vs %f", smi1, smi7)
	}
	if smi1 < 1.4*host {
		t.Fatalf("SMI (%f) should clearly beat host (%f) at large sizes", smi1, host)
	}
	// Bandwidth grows with size.
	if cell(t, r, 0, 1) >= smi1 {
		t.Fatal("bandwidth should grow with message size")
	}
}

func TestFig10Fig11Shape(t *testing.T) {
	b := fullReport(t, "fig10")
	rd := fullReport(t, "fig11")
	// At the smallest size, SMI beats the host by an order of magnitude.
	smiSmall := cell(t, b, 0, 1)
	hostSmall := cell(t, b, 0, 5)
	if hostSmall < 5*smiSmall {
		t.Fatalf("small bcast: host %f should dwarf SMI %f", hostSmall, smiSmall)
	}
	// Reduce costs at least as much as bcast at the same size on SMI.
	if cell(t, rd, len(rd.Rows)-1, 1) < cell(t, b, len(b.Rows)-1, 1) {
		t.Fatal("large reduce should not be cheaper than bcast")
	}
	// 8 ranks cost more than 4 ranks for the same collective.
	lastB := len(b.Rows) - 1
	if cell(t, b, lastB, 1) <= cell(t, b, lastB, 2) {
		t.Fatal("bcast to 8 ranks should exceed 4 ranks")
	}
}

func TestFig13Shape(t *testing.T) {
	r := fullReport(t, "fig13")
	// Two FPGAs double the memory bandwidth and no more: the speedup
	// approaches 2 from below as the square matrices grow (rows 0-3) and
	// the fixed costs amortize. (The ~2x band itself is a paperRows entry.)
	for i := range r.Rows {
		if sp := cell(t, r, i, 3); sp > 2 {
			t.Fatalf("row %v speedup %f exceeds the 2x bandwidth bound", r.Rows[i], sp)
		}
	}
	for i := 1; i < 4; i++ {
		if cell(t, r, i, 3) < cell(t, r, i-1, 3) {
			t.Fatalf("speedup should not fall as the square matrix grows: %v vs %v", r.Rows[i-1], r.Rows[i])
		}
	}
}

func TestFig15Shape(t *testing.T) {
	r := fullReport(t, "fig15")
	// Speedups must be ordered: base < 4-bank ~ 4-FPGA < 4x4 < 8 FPGA.
	s := make([]float64, len(r.Rows))
	for i := range r.Rows {
		s[i] = cell(t, r, i, 2)
	}
	if s[0] != 1.0 {
		t.Fatalf("baseline speedup = %f", s[0])
	}
	if !(s[1] > 2 && s[2] > 2) {
		t.Fatalf("single-resource scaling too weak: %v", s)
	}
	if !(s[3] > 1.5*s[1]) {
		t.Fatalf("banks+FPGAs should multiply: %v", s)
	}
	if !(s[4] > 1.3*s[3]) {
		t.Fatalf("8 FPGAs should extend scaling: %v", s)
	}
	// "1 bank/4 FPGAs" and "4 banks/1 FPGA" should be within ~25% of
	// each other (paper: both 3.5x).
	if ratio := s[2] / s[1]; ratio < 0.75 || ratio > 1.33 {
		t.Fatalf("bank vs FPGA equivalence broken: %v", s)
	}
}

func TestFig16Shape(t *testing.T) {
	r := fullReport(t, "fig16")
	last := len(r.Rows) - 1
	ratio := cell(t, r, last, 3)
	if ratio < 1.5 {
		t.Fatalf("8 ranks should approach 2x over 4 ranks at large grids, got %f", ratio)
	}
	// Time per point falls (or at least does not grow) with grid size as
	// fixed overheads amortize.
	if cell(t, r, last, 1) > cell(t, r, 0, 1)*1.05 {
		t.Fatal("per-point time should amortize with grid size")
	}
}

func TestScalingShape(t *testing.T) {
	r := fullReport(t, "scaling")
	if len(r.Rows) != 4 {
		t.Fatalf("scaling should have 4 rows (stencil, bcast at 8 and 64 ranks), got %d", len(r.Rows))
	}
	for i := range r.Rows {
		if skipped := cell(t, r, i, 3); skipped <= 0 {
			t.Errorf("%s run fast-forwarded no cycles", r.Rows[i][0])
		}
		// Activity sets are the event scheduler's point: it must tick far
		// fewer kernels than the dense scan to reach the same cycle.
		if dense, event := cell(t, r, i, 4), cell(t, r, i, 5); event*5 > dense {
			t.Errorf("%s/%s: event ticked %v kernels, dense %v — want at least 5x fewer", r.Rows[i][0], r.Rows[i][1], event, dense)
		}
		if windows := cell(t, r, i, 8); windows == 0 {
			t.Errorf("%s/%s: adaptive run opened no lookahead windows", r.Rows[i][0], r.Rows[i][1])
		}
	}
	if !strings.Contains(string(r.JSON), `"scheduler": "dense"`) {
		t.Error("the JSON payload must record the dense reference rows alongside the event rows")
	}
}

func TestAblateRShape(t *testing.T) {
	r := fullReport(t, "ablate-r")
	// Bandwidth grows with R; injection latency falls with R.
	for i := 1; i < len(r.Rows); i++ {
		if cell(t, r, i, 1) <= cell(t, r, i-1, 1) {
			t.Fatalf("bandwidth should grow with R: %v", r.Rows)
		}
		if cell(t, r, i, 2) >= cell(t, r, i-1, 2) {
			t.Fatalf("injection latency should fall with R: %v", r.Rows)
		}
	}
}

func TestAblateCreditShape(t *testing.T) {
	r := fullReport(t, "ablate-credit")
	for i := 1; i < len(r.Rows); i++ {
		if cell(t, r, i, 1) >= cell(t, r, i-1, 1) {
			t.Fatalf("reduce time should fall with larger credit tiles: %v", r.Rows)
		}
	}
	// Diminishing returns: the last doubling helps far less than the first.
	first := cell(t, r, 0, 1) - cell(t, r, 1, 1)
	last := cell(t, r, len(r.Rows)-2, 1) - cell(t, r, len(r.Rows)-1, 1)
	if last >= first {
		t.Fatalf("credit benefit should diminish: first %f, last %f", first, last)
	}
}

func TestAblateRoutingShape(t *testing.T) {
	r := fullReport(t, "ablate-routing")
	if r.Rows[0][3] != "NO" {
		t.Fatalf("shortest-path on the torus should have a CDG cycle: %v", r.Rows[0])
	}
	if r.Rows[1][3] != "yes" {
		t.Fatalf("up*/down* must be deadlock-free: %v", r.Rows[1])
	}
	// On the 2x4 torus up*/down* should not dilate paths by more than 2x.
	if cell(t, r, 1, 1) > 2*cell(t, r, 0, 1) {
		t.Fatalf("excessive up*/down* dilation: %v", r.Rows)
	}
}

func TestAblateBufferShape(t *testing.T) {
	r := fullReport(t, "ablate-buffer")
	for i := 1; i < len(r.Rows); i++ {
		if cell(t, r, i, 1) >= cell(t, r, i-1, 1) {
			t.Fatalf("larger buffers should let the sender finish earlier: %v", r.Rows)
		}
	}
	// k=7168 covers 14 of the consumer's pauses: the sender commits the
	// 100K-element message at least 15% sooner than with k=7.
	if first, last := cell(t, r, 0, 1), cell(t, r, len(r.Rows)-1, 1); last > 0.85*first {
		t.Fatalf("the largest buffer should cut sender time by at least 15%%: %v", r.Rows)
	}
}

func TestAblateTreeShape(t *testing.T) {
	r := fullReport(t, "ablate-tree")
	for i := range r.Rows {
		if sp := cell(t, r, i, 3); sp <= 1.0 {
			t.Fatalf("tree should beat linear for %s: %v", r.Rows[i][0], r.Rows[i])
		}
	}
}

func TestAblateFlowControlShape(t *testing.T) {
	r := fullReport(t, "ablate-flowcontrol")
	if r.Rows[0][2] != "DEADLOCK" {
		t.Fatalf("eager with a tiny buffer should deadlock: %v", r.Rows[0])
	}
	for i := 1; i < len(r.Rows); i++ {
		if r.Rows[i][2] != "ok" {
			t.Fatalf("row %v should complete", r.Rows[i])
		}
	}
	// Credited with a small buffer trades bulk throughput for safety; a
	// moderate buffer recovers most of it.
	small := cell(t, r, 2, 4)
	moderate := cell(t, r, 3, 4)
	if moderate >= small {
		t.Fatalf("larger credited buffer should speed the bulk transfer: %v", r.Rows)
	}
}

func TestAblateArbiterShape(t *testing.T) {
	r := fullReport(t, "ablate-arbiter")
	rrBW, skipBW := cell(t, r, 0, 1), cell(t, r, 1, 1)
	if skipBW <= rrBW {
		t.Fatalf("skip-idle should raise bandwidth: %f vs %f", skipBW, rrBW)
	}
	// Skip-idle should approach the 35 Gbit/s payload peak.
	if skipBW < 30 {
		t.Fatalf("skip-idle bandwidth = %f, want near the payload peak", skipBW)
	}
	if cell(t, r, 1, 3) >= cell(t, r, 0, 3) {
		t.Fatal("skip-idle should also lower injection latency")
	}
}

func TestAblateSwitchingShape(t *testing.T) {
	r := fullReport(t, "ablate-switching")
	pktBW, circBW := cell(t, r, 0, 1), cell(t, r, 1, 1)
	if circBW <= pktBW {
		t.Fatalf("circuit switching should raise payload bandwidth: %f vs %f", circBW, pktBW)
	}
	pktCtl, circCtl := cell(t, r, 0, 2), cell(t, r, 1, 2)
	if circCtl <= pktCtl {
		t.Fatalf("circuit switching should delay the concurrent message: %f vs %f", circCtl, pktCtl)
	}
}

func TestStreamingShape(t *testing.T) {
	r := fullReport(t, "streaming")
	if len(r.Rows) != 16 {
		t.Fatalf("streaming should have 16 rows (4 sizes x 4 modes), got %d", len(r.Rows))
	}
	// The acceptance gate: at >=4 KiB the streaming path must finish in
	// at most half the cycles of the credited packet path on the 3-hop bus.
	for _, m := range []string{"streaming_speedup_4K", "streaming_speedup_32K", "streaming_speedup_256K"} {
		if sp, ok := r.Metrics[m]; !ok || sp < 2 {
			t.Errorf("%s = %f, want >= 2 (metrics %v)", m, sp, r.Metrics)
		}
	}
	// The switchover rationale: the advantage must grow with message size.
	if r.Metrics["streaming_speedup_256K"] <= r.Metrics["streaming_speedup_1K"] {
		t.Errorf("streaming advantage should grow with size: %v", r.Metrics)
	}
	for _, want := range []string{`"mode": "packet"`, `"mode": "circuit"`, `"mode": "streaming"`, `"stream_fragments"`} {
		if !strings.Contains(string(r.JSON), want) {
			t.Errorf("JSON payload missing %s", want)
		}
	}
}

func TestExtScatterGatherShape(t *testing.T) {
	r := fullReport(t, "ext-scattergather")
	// SMI beats the host at small sizes for both collectives.
	if cell(t, r, 0, 1) >= cell(t, r, 0, 3) || cell(t, r, 0, 2) >= cell(t, r, 0, 4) {
		t.Fatalf("SMI should win small scatter/gather: %v", r.Rows[0])
	}
	// Time grows with size.
	last := len(r.Rows) - 1
	if cell(t, r, last, 1) <= cell(t, r, 0, 1) || cell(t, r, last, 2) <= cell(t, r, 0, 2) {
		t.Fatalf("collective time should grow with size: %v", r.Rows)
	}
}

func TestAblateTransportShape(t *testing.T) {
	r := fullReport(t, "ablate-transport")
	// Rows 0-5 are the 4:1, 8:1 and 16:1 incast pairs: receiver-driven
	// must cut the tail at every ratio.
	for i := 0; i < 6; i += 2 {
		sdTail, rdTail := cell(t, r, i, 5), cell(t, r, i+1, 5)
		if rdTail >= sdTail {
			t.Fatalf("%s:1 receiver-driven tail %f not below sender-driven credited %f", r.Rows[i][1], rdTail, sdTail)
		}
	}
	for _, m := range []string{"incast_tail_speedup_4", "incast_tail_speedup_8", "incast_tail_speedup_16"} {
		if sp := r.Metrics[m]; sp <= 1 {
			t.Fatalf("%s = %f, want > 1", m, sp)
		}
	}
	// (Zero grants on sender-driven rows, nonzero on paced receiver-driven
	// ones and the cycle-identical unpaced bcast pair are enforced by the
	// experiment itself, which errors instead of producing a row.)
	var doc transportJSON
	if err := json.Unmarshal(r.JSON, &doc); err != nil {
		t.Fatal(err)
	}
	if !doc.FaultLegRejected {
		t.Fatal("receiver-driven fault leg was not recorded as rejected")
	}
}

func TestAblateFaults(t *testing.T) {
	rep := fullReport(t, "ablate-faults")
	// Row 1 is the drop=0 run; it must match the pristine row 0 cycle
	// for cycle (the experiment itself also enforces this).
	if cell(t, rep, 0, 1) != cell(t, rep, 1, 1) {
		t.Errorf("drop=0 run not timing-transparent: %v vs %v", rep.Rows[0][1], rep.Rows[1][1])
	}
	last := len(rep.Rows) - 1
	if rep.Rows[last][6] != "1" {
		t.Errorf("killed-cable stencil reported %s failovers, want 1", rep.Rows[last][6])
	}
	if cell(t, rep, last, 7) == 0 {
		t.Error("failover rescued no packets")
	}
}

// TestFaultsBenchHonorsShards is the regression test for the smibench
// -shards fallback: reliable workloads used to accept a worker count and
// silently run on one engine. The experiment now threads the count into
// the fault scenarios and fails hard when the simulator reports fewer
// worker slots than requested, so a reappearing fallback breaks this test
// instead of quietly producing serial measurements. Scheduler parity
// means the sharded table must equal the golden event-scheduler one.
func TestFaultsBenchHonorsShards(t *testing.T) {
	want := fullReport(t, "ablate-faults")
	e, err := ByID("ablate-faults")
	if err != nil {
		t.Fatal(err)
	}
	r, err := e.Run(Options{Shards: 4})
	if err != nil {
		t.Fatalf("ablate-faults with -shards 4: %v", err)
	}
	for i, row := range r.Rows {
		if strings.Join(row, " ") != strings.Join(want.Rows[i], " ") {
			t.Errorf("row %d on 4 shards %v, on the event scheduler %v", i, row, want.Rows[i])
		}
	}
}
