package link

import (
	"testing"

	"repro/internal/packet"
	"repro/internal/sim"
)

// reliablePump builds one fault-free reliable cable with n packets queued
// to cross it A->B, one per cycle at steady state.
func reliablePump(tb testing.TB, n int) (*sim.Engine, *ReliableLink) {
	tb.Helper()
	e := sim.NewEngine()
	fifo := func(name string) *sim.Fifo[packet.Packet] { return sim.NewFifo[packet.Packet](e, name, 8) }
	in, out := fifo("inAB"), fifo("outAB")
	ab, _ := NewReliablePair(e, e, "ab", "ba", in, out, fifo("inBA"), fifo("outBA"),
		4, ReliableParams{}, nil, nil, nil, nil)
	sim.NewProc(e, "tx", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			in.PushProc(p, pkt(i))
		}
	})
	sim.NewProc(e, "rx", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			if got := seqOf(out.PopProc(p)); got != int32(i) {
				tb.Errorf("packet %d carries %d", i, got)
				return
			}
		}
	})
	return e, ab
}

func runPump(tb testing.TB, e *sim.Engine, ab *ReliableLink, n int) {
	tb.Helper()
	if err := e.Run(); err != nil {
		tb.Fatal(err)
	}
	if got := ab.Delivered(); got != uint64(n) {
		tb.Fatalf("delivered %d of %d packets", got, n)
	}
}

// A fault-free reliable hop allocates nothing: framing, the CRC and the
// retransmit buffer reuse their storage, so a run of twice the packets
// costs exactly the allocations of the shorter one.
func TestReliableHopAllocatesNothing(t *testing.T) {
	allocs := func(n int) float64 {
		return testing.AllocsPerRun(5, func() {
			e, ab := reliablePump(t, n)
			runPump(t, e, ab, n)
		})
	}
	if short, long := allocs(500), allocs(1000); long != short {
		t.Errorf("500 more packets made %v more allocations, want 0", long-short)
	}
}

// BenchmarkReliableHop is one packet across a fault-free reliable link at
// steady state: sequence, CRC, cumulative ack and the retransmit buffer
// on top of the pristine hop. Its allocations amortize to 0 per op.
func BenchmarkReliableHop(b *testing.B) {
	e, ab := reliablePump(b, b.N)
	b.ReportAllocs()
	b.ResetTimer()
	runPump(b, e, ab, b.N)
}
