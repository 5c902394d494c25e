package sim

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
)

// probe is a parking test kernel: it logs every cycle it is ticked at,
// runs an optional action, and parks until an external wake.
type probe struct {
	name  string
	ticks []int64
	act   func(now int64) bool
	until func(now int64) int64 // nil: park until woken
}

func (k *probe) Name() string { return k.name }

func (k *probe) Tick(now int64) bool {
	k.ticks = append(k.ticks, now)
	return k.act != nil && k.act(now)
}

func (k *probe) IdleUntil(now int64) int64 {
	if k.until != nil {
		return k.until(now)
	}
	return Never
}

// addProbes registers n parking probes.
func addProbes(e *Engine, n int) ([]*probe, []KernelID) {
	ks, ids := make([]*probe, n), make([]KernelID, n)
	for i := range ks {
		ks[i] = &probe{name: fmt.Sprintf("k%d", i)}
		ids[i] = e.AddKernel(ks[i])
	}
	return ks, ids
}

func wantTicks(t *testing.T, k *probe, want ...int64) {
	t.Helper()
	if !reflect.DeepEqual(k.ticks, want) {
		t.Errorf("%s ticked at %v, want %v", k.name, k.ticks, want)
	}
}

// A kernel woken from inside the kernel pass ticks this cycle if it is
// registered after the waker — in the waker's word or a later one — and
// next cycle if it is registered before. Nothing else happens on the
// waker's cycle, so the late wake alone has to keep the engine from
// skipping ahead.
func TestSameCycleWakeOrder(t *testing.T) {
	e := NewEngine()
	ks, ids := addProbes(e, 70)
	const waker, earlier, sameWord, nextWord = 10, 3, 20, 69
	ks[waker].act = func(now int64) bool {
		if now == 5 {
			for _, j := range []int{earlier, sameWord, nextWord} {
				e.WakeKernel(ids[j])
			}
		}
		return false
	}
	ks[waker].until = func(now int64) int64 {
		if now < 5 {
			return 5
		}
		return Never
	}
	NewProc(e, "sleeper", func(p *Proc) { p.Sleep(20) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	wantTicks(t, ks[waker], 0, 5)
	wantTicks(t, ks[sameWord], 0, 5)
	wantTicks(t, ks[nextWord], 0, 5)
	wantTicks(t, ks[earlier], 0, 6)
	if got := e.SchedStats().KernelTicks; got != 70+4 {
		t.Errorf("KernelTicks = %d, want 74 (70 seeding ticks + 4 wakes)", got)
	}
}

// A wake for now+1 that is overtaken by a wake for now is superseded by
// the tick: the kernel must not tick a second time on the stale bit.
func TestSupersededWakeTicksOnce(t *testing.T) {
	e := NewEngine()
	ks, ids := addProbes(e, 1)
	NewProc(e, "driver", func(p *Proc) {
		p.Sleep(5)
		e.WakeKernelAt(ids[0], 6)
		e.WakeKernel(ids[0]) // now
		e.WakeKernel(ids[0]) // duplicate
		p.Sleep(5)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	wantTicks(t, ks[0], 0, 5)
	if got := e.SchedStats().KernelTicks; got != 2 {
		t.Errorf("KernelTicks = %d, want 2", got)
	}
}

// With the engine stopped at a barrier its current cycle has not run
// yet: a wake for now lands on that cycle, a wake for now+1 on the one
// after it — for kernels and for procs.
func TestBarrierWakesLandOnTheirCycle(t *testing.T) {
	e := NewEngine()
	ks, ids := addProbes(e, 3)
	never := NewFifo[int](e, "never", 1)
	var resumed int64
	NewProc(e, "waiter", func(p *Proc) {
		never.PopProcE(p, Never)
		resumed = p.Now()
	})
	e.startAll()
	defer e.stopProcs()
	if err := e.runWindow(10); err != nil {
		t.Fatal(err)
	}
	e.phase = phaseBarrier
	e.WakeKernel(ids[0]) // coordinator wake: cycle 10
	e.phase = phaseIdle
	e.WakeKernelAt(ids[1], 11)
	e.WakeKernel(ids[2]) // outside a cycle: the next one
	if n := e.CancelWaitsAt(10); n != 1 {
		t.Fatalf("cancelled %d waits, want 1", n)
	}
	if err := e.runWindow(11); err != nil {
		t.Fatal(err)
	}
	if resumed != 10 {
		t.Errorf("proc cancelled for cycle 10 resumed at %d", resumed)
	}
	wantTicks(t, ks[0], 0, 10)
	wantTicks(t, ks[1], 0)
	if err := e.runWindow(20); err != nil {
		t.Fatal(err)
	}
	wantTicks(t, ks[1], 0, 11)
	wantTicks(t, ks[2], 0, 11)
}

// The same for a proc released for now+1 at a barrier, and for a jump:
// an engine the group fast-forwards keeps the wakes it was handed — in
// the next set or the timing wheel — and runs them at the first cycle it
// executes.
func TestBarrierProcWakeNextCycleAndJump(t *testing.T) {
	e := NewEngine()
	ks, ids := addProbes(e, 2)
	never := NewFifo[int](e, "never", 1)
	var resumed int64
	NewProc(e, "waiter", func(p *Proc) {
		never.PopProcE(p, Never)
		resumed = p.Now()
		never.PopProcE(p, Never)
		resumed = p.Now()
	})
	e.startAll()
	defer e.stopProcs()
	if err := e.runWindow(10); err != nil {
		t.Fatal(err)
	}
	e.CancelWaitsAt(11)
	if err := e.runWindow(11); err != nil {
		t.Fatal(err)
	}
	if resumed != 0 {
		t.Fatalf("proc released for cycle 11 already ran at %d", resumed)
	}
	if err := e.runWindow(12); err != nil {
		t.Fatal(err)
	}
	if resumed != 11 {
		t.Errorf("proc released for cycle 11 resumed at %d", resumed)
	}
	e.CancelWaitsAt(13)
	e.WakeKernelAt(ids[0], 13)
	e.WakeKernelAt(ids[1], 20)
	e.jumpTo(30)
	if err := e.runWindow(31); err != nil {
		t.Fatal(err)
	}
	if resumed != 30 {
		t.Errorf("proc jumped over resumed at %d, want 30", resumed)
	}
	wantTicks(t, ks[0], 0, 30)
	wantTicks(t, ks[1], 0, 30)
}

// wakeAt is a coordinator that wakes one kernel at a barrier, once.
type wakeAt struct {
	e     *Engine
	id    KernelID
	at    int64
	acted bool
}

func (c *wakeAt) NextAction(int64) int64 {
	if c.acted {
		return Never
	}
	return c.at
}

func (c *wakeAt) AtBarrier(int64) {
	c.acted = true
	c.e.WakeKernel(c.id)
}

func (c *wakeAt) Quiescent() bool { return true }

// A group must not jump an engine over a wake handed to it at a barrier,
// however quiet the engine's own last cycle was.
func TestGroupBarrierWakeIsAnEvent(t *testing.T) {
	es := []*Engine{NewEngine(), NewEngine()}
	ks, ids := addProbes(es[1], 1)
	NewBoundary[int](es[0], es[1], es[1].AddKernel(&probe{name: "inlet"}), 4)
	NewProc(es[0], "keepalive", func(p *Proc) { p.Sleep(100) })
	g := NewGroup(es, 1000, 2)
	g.SetCoordinator(&wakeAt{e: es[1], id: ids[0], at: 50})
	if err := g.Run(); err != nil {
		t.Fatal(err)
	}
	wantTicks(t, ks[0], 0, 50)
}

// next is merged into due when the clock advances, not when the kernel
// phase starts: a proc-phase Put with latency 1 targets now+1, and a
// consumer ticked early would find nothing and park for good.
func TestProcPhasePutLatencyOne(t *testing.T) {
	e := NewEngine()
	var b *Boundary[int]
	var got []int64
	k := &probe{name: "rx"}
	k.act = func(now int64) bool {
		if _, ok := b.PopReady(now); ok {
			got = append(got, now)
			return true
		}
		return false
	}
	k.until = func(int64) int64 { return b.NextReadyAt() }
	b = NewBoundary[int](e, e, e.AddKernel(k), 1)
	NewProc(e, "tx", func(p *Proc) {
		p.Sleep(5)
		b.Put(p.Now(), 1)
		p.Sleep(5)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []int64{6}) {
		t.Errorf("entry put at cycle 5 with latency 1 consumed at %v, want [6]", got)
	}
	// IdleUntil is asked after the consuming tick too: with nothing left
	// in flight the consumer parks at once instead of idling through 7.
	wantTicks(t, k, 0, 6)
}

// An active cycle fast-forwards once no kernel is hot, except where the
// dense scan's clock would tell: the cycle the last proc finishes on ends
// the run at now+1 even with a far wake pending (a credit in flight), and
// a cycle that leaves nothing scheduled hands the verdict — clean end or
// deadlock — to the empty cycle after it. Fast-forwarding there moved the
// final clock by the far wake's distance, or by one.
func TestActiveCycleEndsWhereDenseDoes(t *testing.T) {
	scenarios := []struct {
		name  string
		build func(e *Engine)
	}{
		{"last proc finishes with a credit in flight", func(e *Engine) {
			var b *Boundary[int]
			k := &probe{name: "credit-sink"}
			k.act = func(now int64) bool {
				_, ok := b.PopReady(now)
				return ok
			}
			k.until = func(int64) int64 { return b.NextReadyAt() }
			b = NewBoundary[int](e, e, e.AddKernel(k), 12)
			NewProc(e, "sender", func(p *Proc) {
				p.Sleep(5)
				b.Put(p.Now(), 1)
			})
		}},
		{"kernel-only run goes quiet", func(e *Engine) {
			e.AddKernel(&probe{
				name: "worker",
				act:  func(now int64) bool { return now < 3 },
				until: func(now int64) int64 {
					if now < 2 {
						return now + 1
					}
					return Never
				},
			})
		}},
		{"last proc action leaves nothing scheduled", func(e *Engine) {
			never := NewFifo[int](e, "never", 1)
			NewProc(e, "stuck", func(p *Proc) {
				p.Sleep(3)
				never.PopProc(p)
			})
		}},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			var ends [2]string
			for i, sched := range []SchedulerKind{SchedDense, SchedEvent} {
				e := NewEngine()
				e.SetScheduler(sched)
				sc.build(e)
				err := e.Run()
				ends[i] = fmt.Sprintf("cycle %d, %v", e.Now(), err)
			}
			if ends[0] != ends[1] {
				t.Errorf("dense run ended at %s; event run at %s", ends[0], ends[1])
			}
		})
	}
}

// A kernel whose IdleUntil is now+1 sits in the next set; that is a
// scheduled event, so an otherwise quiescent engine must neither skip
// it nor call the run deadlocked.
func TestNextSetIsAScheduledEvent(t *testing.T) {
	e := NewEngine()
	f := NewFifo[int](e, "f", 1)
	k := &probe{name: "slow"}
	k.act = func(now int64) bool { return now == 40 && f.TryPush(7) }
	k.until = func(now int64) int64 {
		if now < 40 {
			return now + 1
		}
		return Never
	}
	e.AddKernel(k)
	var at int64
	NewProc(e, "rx", func(p *Proc) {
		f.PopProc(p)
		at = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 42 {
		t.Errorf("reader finished at %d, want 42", at)
	}
	if st := e.SchedStats(); st.CyclesSkipped != 0 {
		t.Errorf("skipped %d cycles across pending next-set wakes", st.CyclesSkipped)
	}
}

// The same for procs: a kernel that cancels waits but reports no work
// leaves the released proc in the next set and nothing else scheduled.
func TestNextSetProcIsAScheduledEvent(t *testing.T) {
	e := NewEngine()
	never := NewFifo[int](e, "never", 1)
	k := &probe{name: "canceller"}
	k.act = func(now int64) bool {
		if now == 5 {
			e.CancelWaits()
		}
		return false
	}
	k.until = func(now int64) int64 {
		if now < 5 {
			return 5
		}
		return Never
	}
	e.AddKernel(k)
	var res WaitResult
	var at int64
	NewProc(e, "waiter", func(p *Proc) {
		_, res = never.PopProcE(p, Never)
		at = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if res != WaitAborted || at != 6 {
		t.Errorf("wait ended %v at cycle %d, want aborted at 6", res, at)
	}
}

// hotIdler never declares a horizon, so it stays in the hot set.
type hotIdler struct{ ticks int64 }

func (k *hotIdler) Name() string    { return "hot" }
func (k *hotIdler) Tick(int64) bool { k.ticks++; return false }

// Hot kernels alone schedule nothing: an idle span with only hot kernels
// is still fast-forwarded.
func TestHotSetAloneAllowsFastForward(t *testing.T) {
	e := NewEngine()
	k := &hotIdler{}
	e.AddKernel(k)
	NewProc(e, "sleeper", func(p *Proc) { p.Sleep(1000) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if st := e.SchedStats(); st.CyclesExecuted > 3 || k.ticks != st.CyclesExecuted {
		t.Errorf("executed %d cycles (%d hot ticks), want the 1000-cycle sleep skipped", st.CyclesExecuted, k.ticks)
	}
}

func TestMaxCyclesClampsIdleSkip(t *testing.T) {
	for _, sched := range []SchedulerKind{SchedEvent, SchedDense} {
		e := NewEngine()
		e.SetScheduler(sched)
		e.SetMaxCycles(50)
		NewProc(e, "sleeper", func(p *Proc) { p.Sleep(1000) })
		if err := e.Run(); !errors.Is(err, ErrMaxCycles) {
			t.Fatalf("%v: expected ErrMaxCycles, got %v", sched, err)
		}
		if e.Now() != 50 {
			t.Errorf("%v: stopped at cycle %d, want the limit 50", sched, e.Now())
		}
	}
}

// Registered writes go straight into the ring: pops in the same cycle
// move head but must not move the slots of pending writes, including
// across the wrap point with the FIFO at capacity.
func TestFifoPushPopPushAcrossWrap(t *testing.T) {
	e := NewEngine()
	f := NewFifo[string](e, "f", 3)
	pop := func(want string) {
		t.Helper()
		if v, ok := f.TryPop(); !ok || v != want {
			t.Fatalf("pop = %q/%v, want %q", v, ok, want)
		}
	}
	for _, v := range []string{"a", "b", "c"} {
		f.TryPush(v)
	}
	f.commit()
	pop("a")
	if !f.TryPush("d") { // lands in slot 0, behind c in slot 2
		t.Fatal("push into the freed slot failed")
	}
	f.commit()
	// One cycle at capacity: the push fails until a pop frees a slot.
	if f.TryPush("x") {
		t.Fatal("push beyond capacity succeeded")
	}
	pop("b")
	if !f.TryPush("e") {
		t.Fatal("push after pop failed")
	}
	pop("c")
	if !f.TryPush("f") {
		t.Fatal("second push after pop failed")
	}
	pop("d")
	if _, ok := f.TryPop(); ok {
		t.Fatal("registered writes visible before commit")
	}
	if f.PushesCommitted() != 4 || f.Len() != 0 {
		t.Fatalf("committed pushes %d, len %d; want 4, 0", f.PushesCommitted(), f.Len())
	}
	if !f.commit() {
		t.Fatal("commit published nothing")
	}
	if !f.TryPush("g") || f.TryPush("x") {
		t.Fatal("capacity accounting off after commit")
	}
	pop("e")
	pop("f")
	f.commit()
	pop("g")
	if f.MaxLen() != 3 {
		t.Errorf("high-water mark %d, want 3", f.MaxLen())
	}
}

func TestPushAtBarrierNeedsNoPendingWrites(t *testing.T) {
	e := NewEngine()
	f := NewFifo[int](e, "f", 4)
	f.TryPush(1)
	defer func() {
		if recover() == nil {
			t.Fatal("PushAtBarrier over a pending registered write did not panic")
		}
	}()
	f.PushAtBarrier(2)
}

func TestBoundaryRing(t *testing.T) {
	drain := func(t *testing.T, b *Boundary[int], now int64, want ...int) {
		t.Helper()
		for _, w := range want {
			if v, ok := b.PopReady(now); !ok || v != w {
				t.Fatalf("PopReady(%d) = %d/%v, want %d", now, v, ok, w)
			}
		}
	}
	t.Run("wrap and grow", func(t *testing.T) {
		e := NewEngine()
		b := NewBoundary[int](e, e, 0, 1)
		for v := 0; v < 3; v++ {
			b.Put(0, v)
		}
		drain(t, b, 1, 0, 1)
		for v := 3; v < 6; v++ { // wraps the 4-slot ring
			b.Put(1, v)
		}
		if b.Len() != 4 || b.NextReadyAt() != 1 {
			t.Fatalf("len %d, next ready %d; want 4, 1", b.Len(), b.NextReadyAt())
		}
		for v := 6; v < 12; v++ { // grows with the oldest entry mid-ring
			b.Put(2, v)
		}
		if _, ok := b.PopReady(0); ok {
			t.Fatal("entry consumed before its ready cycle")
		}
		drain(t, b, 3, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11)
		if b.Len() != 0 || b.NextReadyAt() != Never {
			t.Fatal("drained boundary not empty")
		}
	})
	t.Run("clear mid-ring", func(t *testing.T) {
		e := NewEngine()
		b := NewBoundary[int](e, e, 0, 1)
		for v := 0; v < 4; v++ {
			b.Put(0, v)
		}
		drain(t, b, 1, 0, 1, 2)
		b.Put(1, 4)
		b.Clear()
		if b.Len() != 0 || b.NextReadyAt() != Never {
			t.Fatal("cleared boundary not empty")
		}
		for v := 10; v < 16; v++ {
			b.Put(5, v)
		}
		drain(t, b, 6, 10, 11, 12, 13, 14, 15)
	})
	t.Run("crossing flush after partial consumption", func(t *testing.T) {
		src, dst := NewEngine(), NewEngine()
		b := NewBoundary[int](src, dst, 0, 4)
		for v := 0; v < 3; v++ {
			b.Put(int64(v), v)
		}
		if b.Len() != 0 || b.Pending() != 3 {
			t.Fatalf("before flush: len %d pending %d", b.Len(), b.Pending())
		}
		b.flush()
		dst.now = 5
		drain(t, b, 5, 0, 1)
		if _, ok := b.PopReady(5); ok {
			t.Fatal("entry ready at 6 consumed at 5")
		}
		for v := 3; v < 8; v++ {
			b.Put(int64(v), v)
		}
		b.flush()
		if b.Len() != 6 || b.Pending() != 0 {
			t.Fatalf("after second flush: len %d pending %d", b.Len(), b.Pending())
		}
		drain(t, b, 11, 2, 3, 4, 5, 6, 7)
		b.Put(20, 8)
		b.Clear()
		b.flush()
		if b.Len() != 0 || b.Pending() != 0 {
			t.Fatal("Clear left entries behind")
		}
	})
}
