package sim

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"
)

func TestEmptyEngineRunsNoProcs(t *testing.T) {
	// An engine with no procs quiesces cleanly once nothing is
	// scheduled, instead of spinning to the cycle limit.
	for _, sched := range []SchedulerKind{SchedEvent, SchedDense} {
		e := NewEngine()
		e.SetScheduler(sched)
		e.SetMaxCycles(10)
		if err := e.Run(); err != nil {
			t.Fatalf("%v: expected clean quiescence, got %v", sched, err)
		}
	}
}

func TestKernelOnlyQuiescence(t *testing.T) {
	// A kernel-only engine (zero procs) terminates once its kernels go
	// idle with no scheduled wake, in both scheduling modes.
	for _, sched := range []SchedulerKind{SchedEvent, SchedDense} {
		e := NewEngine()
		e.SetScheduler(sched)
		e.SetMaxCycles(1_000_000)
		f := NewFifo[int](e, "sink", 32)
		k := &countingKernel{budget: 25, f: f}
		e.AddKernel(k)
		if err := e.Run(); err != nil {
			t.Fatalf("%v: expected clean quiescence, got %v", sched, err)
		}
		if k.ticks < 25 {
			t.Fatalf("%v: kernel should tick through its budget, got %d", sched, k.ticks)
		}
		if got := e.Now(); got > 30 {
			t.Fatalf("%v: run should end shortly after the kernel quiesces, ended at %d", sched, got)
		}
	}
}

func TestSingleProcTicks(t *testing.T) {
	e := NewEngine()
	var end int64
	NewProc(e, "ticker", func(p *Proc) {
		for i := 0; i < 10; i++ {
			p.Tick()
		}
		end = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if end != 10 {
		t.Fatalf("10 ticks should land on cycle 10, got %d", end)
	}
}

func TestSleepFastForward(t *testing.T) {
	// A multi-billion-cycle sleep must complete near-instantly: the
	// engine fast-forwards over fully idle spans instead of iterating.
	e := NewEngine()
	e.SetMaxCycles(5_000_000_000)
	var woke int64
	NewProc(e, "sleeper", func(p *Proc) {
		p.Sleep(4_000_000_000)
		woke = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if woke != 4_000_000_000 {
		t.Fatalf("expected wake at cycle 4e9, got %d", woke)
	}
}

func TestSleepZeroAndNegative(t *testing.T) {
	e := NewEngine()
	NewProc(e, "p", func(p *Proc) {
		p.Sleep(0)
		p.Sleep(-5)
		if p.Now() != 0 {
			t.Errorf("non-positive sleeps must not consume cycles, at %d", p.Now())
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestFifoRegisteredVisibility(t *testing.T) {
	e := NewEngine()
	f := NewFifo[int](e, "f", 4)
	var sawAt int64
	NewProc(e, "writer", func(p *Proc) {
		f.PushProc(p, 42) // pushed at cycle 0
	})
	NewProc(e, "reader", func(p *Proc) {
		v := f.PopProc(p)
		if v != 42 {
			t.Errorf("got %d, want 42", v)
		}
		sawAt = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// Write commits at end of cycle 0; reader can pop at cycle 1 at the
	// earliest (pop consumes that cycle, finishing at 2).
	if sawAt < 2 {
		t.Fatalf("registered write visible too early: reader finished at %d", sawAt)
	}
}

func TestFifoOrderPreserved(t *testing.T) {
	const n = 500
	e := NewEngine()
	f := NewFifo[int](e, "f", 3)
	NewProc(e, "writer", func(p *Proc) {
		for i := 0; i < n; i++ {
			f.PushProc(p, i)
		}
	})
	var got []int
	NewProc(e, "reader", func(p *Proc) {
		for i := 0; i < n; i++ {
			got = append(got, f.PopProc(p))
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("order violated at %d: got %d", i, v)
		}
	}
}

func TestFifoBackpressure(t *testing.T) {
	// A capacity-2 FIFO with a slow reader must throttle the writer.
	e := NewEngine()
	f := NewFifo[int](e, "f", 2)
	var writerDone int64
	NewProc(e, "writer", func(p *Proc) {
		for i := 0; i < 10; i++ {
			f.PushProc(p, i)
		}
		writerDone = p.Now()
	})
	NewProc(e, "reader", func(p *Proc) {
		for i := 0; i < 10; i++ {
			p.Sleep(9) // 1 pop per 10 cycles
			f.PopProc(p)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if writerDone < 70 {
		t.Fatalf("writer finished at %d; backpressure should slow it to reader rate", writerDone)
	}
}

func TestFifoThroughputIIOne(t *testing.T) {
	// With a deep FIFO and matched producer/consumer, one element moves
	// per cycle: 1000 elements must take roughly 1000 cycles.
	const n = 1000
	e := NewEngine()
	f := NewFifo[int](e, "f", 64)
	NewProc(e, "writer", func(p *Proc) {
		for i := 0; i < n; i++ {
			f.PushProc(p, i)
		}
	})
	var done int64
	NewProc(e, "reader", func(p *Proc) {
		for i := 0; i < n; i++ {
			f.PopProc(p)
		}
		done = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if done > n+10 {
		t.Fatalf("pipeline not II=1: %d elements took %d cycles", n, done)
	}
}

func TestDeadlockDetection(t *testing.T) {
	e := NewEngine()
	a := NewFifo[int](e, "a", 1)
	b := NewFifo[int](e, "b", 1)
	// Two procs each waiting for the other to send first.
	NewProc(e, "p0", func(p *Proc) {
		a.PopProc(p)
		b.PushProc(p, 1)
	})
	NewProc(e, "p1", func(p *Proc) {
		b.PopProc(p)
		a.PushProc(p, 1)
	})
	err := e.Run()
	var dl *DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("expected DeadlockError, got %v", err)
	}
	if len(dl.Blocked) != 2 {
		t.Fatalf("expected 2 blocked procs, got %v", dl.Blocked)
	}
	if !strings.Contains(err.Error(), "waiting on") {
		t.Fatalf("diagnostic should describe blocked ops: %v", err)
	}
}

func TestProcPanicPropagates(t *testing.T) {
	e := NewEngine()
	NewProc(e, "bad", func(p *Proc) {
		p.Tick()
		panic("boom")
	})
	NewProc(e, "idle", func(p *Proc) {
		for i := 0; i < 1000; i++ {
			p.Tick()
		}
	})
	err := e.Run()
	if err == nil || !strings.Contains(err.Error(), "proc bad: panic: boom") {
		t.Fatalf("expected propagated panic, got %v", err)
	}
	// The stack is the proc's own, taken before it unwound.
	if !strings.Contains(err.Error(), "TestProcPanicPropagates.func1") {
		t.Errorf("panic report does not name the proc body:\n%v", err)
	}
}

func TestMaxCyclesAborts(t *testing.T) {
	e := NewEngine()
	e.SetMaxCycles(50)
	NewProc(e, "forever", func(p *Proc) {
		for {
			p.Tick()
		}
	})
	if err := e.Run(); !errors.Is(err, ErrMaxCycles) {
		t.Fatalf("expected ErrMaxCycles, got %v", err)
	}
}

type countingKernel struct {
	ticks  int64
	budget int64
	f      *Fifo[int]
}

func (k *countingKernel) Name() string { return "counter" }
func (k *countingKernel) Tick(now int64) bool {
	if k.ticks >= k.budget {
		return false
	}
	if k.f.TryPush(int(k.ticks)) {
		k.ticks++
	}
	return true
}

func TestKernelAndProcInterleave(t *testing.T) {
	e := NewEngine()
	f := NewFifo[int](e, "f", 4)
	k := &countingKernel{budget: 100, f: f}
	e.AddKernel(k)
	var got []int
	NewProc(e, "reader", func(p *Proc) {
		for i := 0; i < 100; i++ {
			got = append(got, f.PopProc(p))
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("kernel stream out of order at %d: %d", i, v)
		}
	}
}

func TestDeterminism(t *testing.T) {
	run := func() int64 {
		e := NewEngine()
		f1 := NewFifo[int](e, "f1", 3)
		f2 := NewFifo[int](e, "f2", 3)
		NewProc(e, "a", func(p *Proc) {
			for i := 0; i < 200; i++ {
				f1.PushProc(p, i)
			}
		})
		NewProc(e, "b", func(p *Proc) {
			for i := 0; i < 200; i++ {
				f2.PushProc(p, f1.PopProc(p)*2)
			}
		})
		var end int64
		NewProc(e, "c", func(p *Proc) {
			for i := 0; i < 200; i++ {
				f2.PopProc(p)
			}
			end = p.Now()
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return end
	}
	first := run()
	for i := 0; i < 5; i++ {
		if got := run(); got != first {
			t.Fatalf("nondeterministic completion: run %d gave %d, first gave %d", i, got, first)
		}
	}
}

func TestFifoTryOps(t *testing.T) {
	e := NewEngine()
	f := NewFifo[string](e, "f", 2)
	if _, ok := f.TryPop(); ok {
		t.Fatal("pop from empty FIFO should fail")
	}
	if !f.TryPush("a") || !f.TryPush("b") {
		t.Fatal("pushes within capacity should succeed")
	}
	if f.TryPush("c") {
		t.Fatal("push beyond capacity should fail")
	}
	if _, ok := f.TryPop(); ok {
		t.Fatal("uncommitted writes must not be visible")
	}
	f.commit()
	v, ok := f.TryPop()
	if !ok || v != "a" {
		t.Fatalf("got %q/%v, want a/true", v, ok)
	}
	if got, _ := f.Peek(); got != "b" {
		t.Fatalf("peek got %q, want b", got)
	}
	if f.Len() != 1 {
		t.Fatalf("len=%d, want 1", f.Len())
	}
}

// Property: for any sequence of elements and any FIFO capacity, a
// writer/reader pair preserves content and order exactly.
func TestFifoPreservesSequenceQuick(t *testing.T) {
	prop := func(data []uint32, capRaw uint8) bool {
		capacity := int(capRaw%16) + 1
		e := NewEngine()
		f := NewFifo[uint32](e, "f", capacity)
		NewProc(e, "w", func(p *Proc) {
			for _, v := range data {
				f.PushProc(p, v)
			}
		})
		got := make([]uint32, 0, len(data))
		NewProc(e, "r", func(p *Proc) {
			for range data {
				got = append(got, f.PopProc(p))
			}
		})
		if err := e.Run(); err != nil {
			return false
		}
		if len(got) != len(data) {
			return false
		}
		for i := range data {
			if got[i] != data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestClockConversions(t *testing.T) {
	c := Clock{Hz: DefaultClockHz}
	if got := c.Micros(15625); got < 99.9 || got > 100.1 {
		t.Fatalf("15625 cycles at 156.25MHz should be 100us, got %g", got)
	}
	if got := c.Cycles(c.Duration(12345)); got != 12345 {
		t.Fatalf("cycle->duration->cycle roundtrip: got %d", got)
	}
	var zero Clock // zero value defaults to 156.25 MHz
	if zero.Seconds(int64(DefaultClockHz)) != 1.0 {
		t.Fatal("zero-value clock should default to DefaultClockHz")
	}
}

func TestPopProcPairedCostsNoCycle(t *testing.T) {
	e := NewEngine()
	f := NewFifo[int](e, "f", 8)
	NewProc(e, "writer", func(p *Proc) {
		for i := 0; i < 10; i++ {
			f.PushProc(p, i)
		}
	})
	var popped int
	var cycles int64
	NewProc(e, "reader", func(p *Proc) {
		// Wait until data is buffered, then paired pops are free.
		p.Sleep(20)
		start := p.Now()
		for i := 0; i < 8; i++ {
			if v := f.PopProcPaired(p); v != i {
				t.Errorf("pop %d = %d", i, v)
			}
			popped++
		}
		cycles = p.Now() - start
		// Drain the rest normally so the writer finishes.
		f.PopProc(p)
		f.PopProc(p)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if popped != 8 || cycles != 0 {
		t.Fatalf("8 paired pops of buffered data took %d cycles, want 0", cycles)
	}
}

func TestPopProcPairedBlocksWhenEmpty(t *testing.T) {
	e := NewEngine()
	f := NewFifo[int](e, "f", 2)
	var at int64
	NewProc(e, "writer", func(p *Proc) {
		p.Sleep(100)
		f.PushProc(p, 7)
	})
	NewProc(e, "reader", func(p *Proc) {
		if v := f.PopProcPaired(p); v != 7 {
			t.Errorf("got %d", v)
		}
		at = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if at < 100 {
		t.Fatalf("paired pop returned before data existed (cycle %d)", at)
	}
}

func TestFifoStats(t *testing.T) {
	e := NewEngine()
	f := NewFifo[int](e, "f", 4)
	NewProc(e, "w", func(p *Proc) {
		for i := 0; i < 6; i++ {
			f.PushProc(p, i)
		}
	})
	NewProc(e, "r", func(p *Proc) {
		p.Sleep(10)
		for i := 0; i < 6; i++ {
			f.PopProc(p)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if f.Pushes() != 6 {
		t.Fatalf("pushes = %d", f.Pushes())
	}
	if f.MaxLen() < 3 || f.MaxLen() > 4 {
		t.Fatalf("high-water mark = %d", f.MaxLen())
	}
	if f.Cap() != 4 || f.Name() != "f" {
		t.Fatal("accessors broken")
	}
}
