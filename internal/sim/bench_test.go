package sim

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
)

// Layer benchmarks and zero-allocation assertions for the sim hot paths,
// so an end-to-end ns/cycle number can be decomposed: one engine cycle
// with every kernel hot, one with every kernel parking and re-waking, a
// FIFO element, a boundary entry, a proc resumption.

// busyKernel always reports work, so it stays in the hot set.
type busyKernel struct{}

func (busyKernel) Name() string    { return "busy" }
func (busyKernel) Tick(int64) bool { return true }

// pulseTx pushes one element every `period` cycles and parks in between
// (the next set for period 2, the timing wheel or, beyond its span, the
// heap for longer periods); pulseRx parks until the FIFO commit wakes it
// and pops.
type pulseTx struct {
	f            *Fifo[uint64]
	period, next int64
}

func (k *pulseTx) Name() string { return "tx" }
func (k *pulseTx) Tick(now int64) bool {
	if now < k.next || !k.f.TryPush(uint64(now)) {
		return false
	}
	k.next = now + k.period
	return true
}
func (k *pulseTx) IdleUntil(int64) int64 { return k.next }

type pulseRx struct{ f *Fifo[uint64] }

func (k *pulseRx) Name() string { return "rx" }
func (k *pulseRx) Tick(int64) bool {
	_, ok := k.f.TryPop()
	return ok
}
func (k *pulseRx) IdleUntil(now int64) int64 {
	if k.f.CanPop() {
		return now
	}
	return Never
}

// parkWakeEngine builds `pairs` tx/rx pairs, each over its own FIFO, with
// periods of base, base+1 and base+2 cycles.
func parkWakeEngine(pairs int, base int64) *Engine {
	e := NewEngine()
	for i := 0; i < pairs; i++ {
		f := NewFifo[uint64](e, "f", 4)
		e.AddKernel(&pulseTx{f: f, period: base + int64(i%3)})
		f.WakesKernel(e.AddKernel(&pulseRx{f: f}))
	}
	return e
}

// runCycles runs a proc-less engine for exactly n cycles.
func runCycles(tb testing.TB, e *Engine, n int) {
	tb.Helper()
	e.SetMaxCycles(int64(n))
	if err := e.Run(); !errors.Is(err, ErrMaxCycles) {
		tb.Fatalf("expected the cycle limit to end the run, got %v", err)
	}
}

func BenchmarkEngineCycleHot(b *testing.B) {
	e := NewEngine()
	for i := 0; i < 128; i++ {
		e.AddKernel(busyKernel{})
	}
	b.ReportAllocs()
	b.ResetTimer()
	runCycles(b, e, b.N)
}

func BenchmarkEngineCycleParkWake(b *testing.B) {
	e := parkWakeEngine(64, 2)
	b.ReportAllocs()
	b.ResetTimer()
	runCycles(b, e, b.N)
}

func BenchmarkFifo(b *testing.B) {
	f := NewFifo[uint64](NewEngine(), "f", 8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f.TryPush(uint64(i))
		f.commit()
		f.TryPop()
	}
}

func BenchmarkBoundary(b *testing.B) {
	b.Run("same-engine", func(b *testing.B) {
		e := NewEngine()
		bd := NewBoundary[uint64](e, e, 0, 4)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			bd.Put(int64(i), uint64(i))
			bd.PopReady(int64(i) + 4)
		}
	})
	b.Run("crossing", func(b *testing.B) {
		bd := NewBoundary[uint64](NewEngine(), NewEngine(), 0, 4)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			bd.Put(int64(i), uint64(i))
			bd.flush()
			bd.PopReady(int64(i) + 4)
		}
	})
}

// BenchmarkProcTick is one proc resumption: engine -> body -> engine. The
// coroutine switch never goes through a run queue, so the cost at
// GOMAXPROCS 1 and at every CPU is expected to be the same (within 10 %).
func BenchmarkProcTick(b *testing.B) {
	counts := []int{1}
	if n := runtime.NumCPU(); n > 1 {
		counts = append(counts, n)
	}
	for _, procs := range counts {
		b.Run(fmt.Sprintf("gomaxprocs=%d", procs), func(b *testing.B) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			e := NewEngine()
			e.SetMaxCycles(int64(b.N) + 2)
			NewProc(e, "ticker", func(p *Proc) {
				for i := 0; i < b.N; i++ {
					p.Tick()
				}
			})
			b.ReportAllocs()
			b.ResetTimer()
			if err := e.Run(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// The steady state of every sim primitive allocates nothing: FIFO
// elements live in the ring from push to pop, boundary rings only grow
// to their peak occupancy, parking and waking a kernel is bit arithmetic
// in the tick sets and the timing wheel (allocated once per engine) plus,
// beyond the wheel's span, heap slots that are reused, and a proc step is
// a coroutine switch.
func TestSteadyStateAllocatesNothing(t *testing.T) {
	check := func(name string, f func()) {
		t.Helper()
		f() // reach the steady state: rings and queues at their working size
		if n := testing.AllocsPerRun(200, f); n != 0 {
			t.Errorf("%s: %v allocs per run, want 0", name, n)
		}
	}

	f := NewFifo[uint64](NewEngine(), "f", 4)
	check("fifo push/commit/pop", func() {
		for i := 0; i < 6; i++ { // crosses the wrap point
			f.TryPush(uint64(i))
			f.commit()
			f.TryPop()
		}
	})

	e := NewEngine()
	same := NewBoundary[uint64](e, e, 0, 4)
	check("same-engine boundary put/pop", func() {
		for i := int64(0); i < 6; i++ {
			same.Put(i, uint64(i))
			same.Put(i, uint64(i))
			same.PopReady(i + 4)
			same.PopReady(i + 4)
		}
	})

	cross := NewBoundary[uint64](NewEngine(), NewEngine(), 0, 4)
	check("crossing boundary put/flush/pop", func() {
		for i := int64(0); i < 6; i++ {
			cross.Put(i, uint64(i))
			cross.Put(i, uint64(i))
			cross.flush()
			cross.PopReady(i + 4)
			cross.PopReady(i + 4)
		}
	})

	// Periods of 2-4 cycles park kernels in the next set and the wheel,
	// periods just past the wheel's span in the heap; each run covers one
	// round of every period.
	var horizon int64
	for _, c := range []struct {
		name string
		base int64
		heap bool
	}{
		{"inside the wheel span", 2, false},
		{"beyond the wheel span", wheelSpan, true},
	} {
		pw := parkWakeEngine(70, c.base) // 140 kernels: three words
		pw.startAll()
		round := 3 * (c.base + 2)
		horizon = round
		if err := pw.runWindow(horizon); err != nil {
			t.Fatal(err)
		}
		check("engine cycle that parks and re-wakes kernels "+c.name, func() {
			horizon += round
			if err := pw.runWindow(horizon); err != nil {
				t.Fatal(err)
			}
		})
		if st := pw.SchedStats(); st.KernelTicks >= int64(140)*st.CyclesExecuted || st.FifoCommits == 0 {
			t.Errorf("%s: park/wake engine never parked: %d ticks over %d cycles, %d commits", c.name, st.KernelTicks, st.CyclesExecuted, st.FifoCommits)
		}
		if used := pw.kq.len() > 0; used != c.heap {
			t.Errorf("%s: kernel heap in use = %v, want %v", c.name, used, c.heap)
		}
	}

	pe := NewEngine()
	NewProc(pe, "ticker", func(p *Proc) {
		for {
			p.Tick()
		}
	})
	pe.startAll()
	defer pe.stopProcs()
	horizon = 0
	check("proc step", func() {
		horizon += 6
		if err := pe.runWindow(horizon); err != nil {
			t.Fatal(err)
		}
	})
	if st := pe.SchedStats(); st.ProcSteps != st.CyclesExecuted {
		t.Errorf("ticker proc stepped %d times over %d cycles", st.ProcSteps, st.CyclesExecuted)
	}
}
