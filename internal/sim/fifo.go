package sim

import "slices"

// fifoCore holds the type-independent bookkeeping of a FIFO: occupancy,
// capacity, and the procs and kernels blocked on it.
type fifoCore struct {
	eng *Engine
	// name formats the name of FIFO nameIdx of its slab (see NewFifos);
	// the string exists only while someone reads it.
	name      func(i int) string
	nameIdx   int32
	index     int32    // registration index in the engine's FIFO list
	spaceKern KernelID // writer kernel to wake on the next pop (see WakeOnSpace), or noKernel
	capacity  int
	size      int // committed (reader-visible) occupancy
	pendingIn int // writes performed this cycle, not yet visible
	head      int // ring index of the oldest committed element

	spaceWaiters []*Proc
	dataWaiters  []*Proc
	kernWaiters  []KernelID  // parked kernels to wake on pops and commits
	kernSlots    [2]KernelID // kernWaiters' storage up to two kernels

	dirty   bool // on the engine's dirty list this cycle
	stalled bool // inside a blocked-push window (stall accounting)

	// statistics
	pushes    uint64
	maxSize   int
	stallHint uint64 // blocked-push windows (backpressure events)
}

// wake transitions procs blocked on this FIFO back to runnable once the
// condition they wait for holds. Called at the end of each cycle, after
// commits; woken procs run no earlier than the following cycle.
func (c *fifoCore) wake(e *Engine) {
	if c.size > 0 && len(c.dataWaiters) > 0 {
		for _, p := range c.dataWaiters {
			p.status = procRunnable
			p.runAt = e.now + 1
			e.scheduleProc(p, p.runAt)
		}
		c.dataWaiters = c.dataWaiters[:0]
	}
	if c.size+c.pendingIn < c.capacity && len(c.spaceWaiters) > 0 {
		for _, p := range c.spaceWaiters {
			p.status = procRunnable
			p.runAt = e.now + 1
			e.scheduleProc(p, p.runAt)
		}
		c.spaceWaiters = c.spaceWaiters[:0]
	}
}

// commit publishes this cycle's writes to readers. The elements already
// sit in their ring slots (see TryPush), so publishing is type-independent.
func (c *fifoCore) commit() bool {
	if c.pendingIn == 0 {
		return false
	}
	c.size += c.pendingIn
	c.pendingIn = 0
	if c.size > c.maxSize {
		c.maxSize = c.size
	}
	return true
}

// slot returns the ring index k elements past the oldest committed one.
func (c *fifoCore) slot(k int) int {
	i := c.head + k
	if i >= c.capacity {
		i -= c.capacity
	}
	return i
}

// Fifo is a bounded queue with registered writes: an element pushed
// during cycle t becomes visible to readers at cycle t+1, mirroring the
// one-cycle output latency of an on-chip FIFO. Pops take effect
// immediately (the freed slot is reusable in the same cycle).
//
// A Fifo supports one logical reader and one logical writer, matching
// the single-reader/single-writer restriction of Intel OpenCL channels
// that the paper's reference implementation works within.
//
// Its ring is allocated by the first push: a FIFO nobody writes costs
// its struct alone, while Cap still reports the full depth.
type Fifo[T any] struct {
	fifoCore
	buf []T // ring: size committed elements from head, then pendingIn registered writes; nil until the first push
}

// NewFifos creates n FIFOs in one allocation and registers them with the
// engine, in index order, for end-of-cycle commits. FIFO i holds
// capacity(i) elements (minimum 1); capacity is called only here. name(i)
// formats FIFO i's name each time Name is called, so a builder of many
// FIFOs formats no string a run never shows.
func NewFifos[T any](e *Engine, n int, capacity func(i int) int, name func(i int) string) []Fifo[T] {
	if e.started {
		panic("sim: NewFifos after Run")
	}
	slab := make([]Fifo[T], n)
	e.fifos = slices.Grow(e.fifos, n)
	for i := range slab {
		f := &slab[i]
		f.eng, f.name, f.nameIdx = e, name, int32(i)
		f.index, f.spaceKern = int32(len(e.fifos)), noKernel
		f.capacity = max(capacity(i), 1)
		e.fifos = append(e.fifos, &f.fifoCore)
	}
	return slab
}

// NewFifo creates a FIFO of the given capacity (minimum 1) and registers
// it with the engine for end-of-cycle commits: the one-FIFO case of
// NewFifos.
func NewFifo[T any](e *Engine, name string, capacity int) *Fifo[T] {
	return &NewFifos[T](e, 1, func(int) int { return capacity }, func(int) string { return name })[0]
}

// WakesKernel attaches a kernel as a wake target of this FIFO: commits
// and pops on the FIFO wake the kernel if it is parked (see IdleUntiler).
// Attach the kernel that reads the FIFO, and any kernel that watches its
// fill level, if it may park while waiting for data. A writer does not
// attach: its own pushes would wake it for nothing (see WakeOnSpace).
func (f *Fifo[T]) WakesKernel(id KernelID) {
	if f.kernWaiters == nil {
		f.kernWaiters = f.kernSlots[:0]
	}
	f.kernWaiters = append(f.kernWaiters, id)
}

// WakeOnSpace arms a one-shot wake of kernel id, the FIFO's writer, on
// the next pop: the kernel mirror of a proc blocked in PushProc. A kernel
// that parks because this FIFO is full arms it, typically from the tick
// whose push failed; re-arming is harmless. A FIFO has one writer, so
// the slot holds one kernel.
func (f *Fifo[T]) WakeOnSpace(id KernelID) { f.spaceKern = id }

// Stalls returns the number of blocked-push windows observed: a window
// opens on the first failed push attempt and closes on the next success,
// so a producer retrying for many cycles counts once.
func (f *Fifo[T]) Stalls() uint64 { return f.stallHint }

// Name returns the FIFO's registered name.
func (f *Fifo[T]) Name() string { return f.fifoCore.label() }

func (c *fifoCore) label() string { return c.name(int(c.nameIdx)) }

// Cap returns the FIFO's capacity.
func (f *Fifo[T]) Cap() int { return f.capacity }

// Len returns the committed (reader-visible) occupancy.
func (f *Fifo[T]) Len() int { return f.size }

// Pushes returns the total number of elements ever pushed.
func (f *Fifo[T]) Pushes() uint64 { return f.pushes }

// MaxLen returns the high-water mark of committed occupancy.
func (f *Fifo[T]) MaxLen() int { return f.maxSize }

// CanPush reports whether a push would be accepted this cycle.
func (f *Fifo[T]) CanPush() bool { return f.size+f.pendingIn < f.capacity }

// CanPop reports whether committed data is available.
func (f *Fifo[T]) CanPop() bool { return f.size > 0 }

// TryPush enqueues v if space is available, reporting success. The
// element becomes visible to readers next cycle: it is written straight
// into the ring slot behind the committed and pending elements — pops
// advance head and shrink size together, so that slot stays put — and
// commit only has to count it in.
func (f *Fifo[T]) TryPush(v T) bool {
	if !f.CanPush() {
		if !f.stalled {
			f.stalled = true
			f.stallHint++
		}
		return false
	}
	f.stalled = false
	if f.buf == nil {
		f.buf = make([]T, f.capacity)
	}
	f.buf[f.slot(f.size+f.pendingIn)] = v
	f.pendingIn++
	f.pushes++
	f.markDirty()
	return true
}

// TryPop dequeues the oldest committed element, reporting success.
func (f *Fifo[T]) TryPop() (T, bool) {
	var zero T
	if f.size == 0 {
		return zero, false
	}
	v := f.buf[f.head]
	f.buf[f.head] = zero
	f.head = f.slot(1)
	f.size--
	// A pop frees space immediately, so the end-of-cycle wake pass must
	// visit this FIFO, and a writer kernel blocked on it may resume.
	f.markDirty()
	if k := f.spaceKern; k != noKernel {
		f.spaceKern = noKernel
		f.eng.WakeKernel(k)
	}
	if len(f.kernWaiters) > 0 {
		f.wakeKernels()
	}
	return v, true
}

// Peek returns the oldest committed element without removing it.
func (f *Fifo[T]) Peek() (T, bool) {
	var zero T
	if f.size == 0 {
		return zero, false
	}
	return f.buf[f.head], true
}

// PushProc pushes v on behalf of proc p, blocking (consuming cycles)
// while the FIFO is full. A successful push consumes one cycle,
// preserving the initiation-interval-one contract of pipelined loops.
func (f *Fifo[T]) PushProc(p *Proc, v T) {
	p.consuming()
	for !f.CanPush() {
		p.waitCond(&f.fifoCore, true)
	}
	f.TryPush(v)
	p.Tick()
}

// PopProc pops an element on behalf of proc p, blocking while empty.
// A successful pop consumes one cycle.
func (f *Fifo[T]) PopProc(p *Proc) T {
	p.consuming()
	for !f.CanPop() {
		p.waitCond(&f.fifoCore, false)
	}
	v, _ := f.TryPop()
	p.Tick()
	return v
}

// PopProcPaired pops an element on behalf of proc p, blocking while
// empty, but a successful pop consumes no cycle of its own: it models
// the second port of a dual-port operation that already paid its cycle
// (e.g. SMI_Reduce at the root pushes a contribution and pops a result
// in one pipelined loop iteration). Use sparingly — at most one paired
// pop per cycle-consuming operation keeps the model honest.
func (f *Fifo[T]) PopProcPaired(p *Proc) T {
	p.consuming()
	for !f.CanPop() {
		p.waitCond(&f.fifoCore, false)
	}
	v, _ := f.TryPop()
	return v
}

// PushProcE is PushProc with a cancellable wait: it blocks at most until
// the absolute deadline cycle (Never for no deadline) and unblocks early
// if the engine cancels waits (Engine.CancelWaits). On WaitOK the
// element was pushed and one cycle consumed; on WaitTimeout/WaitAborted
// nothing was pushed and no cycle was consumed by the failed attempt.
func (f *Fifo[T]) PushProcE(p *Proc, v T, deadline int64) WaitResult {
	p.consuming()
	for !f.CanPush() {
		if r := p.waitCondCancel(&f.fifoCore, true, deadline); r != WaitOK {
			return r
		}
	}
	f.TryPush(v)
	p.Tick()
	return WaitOK
}

// PopProcE is PopProc with a cancellable wait (see PushProcE). On WaitOK
// the element is returned and one cycle consumed; otherwise the zero
// value is returned and the FIFO is untouched.
func (f *Fifo[T]) PopProcE(p *Proc, deadline int64) (T, WaitResult) {
	p.consuming()
	for !f.CanPop() {
		if r := p.waitCondCancel(&f.fifoCore, false, deadline); r != WaitOK {
			var zero T
			return zero, r
		}
	}
	v, _ := f.TryPop()
	p.Tick()
	return v, WaitOK
}

// PopProcPairedE is PopProcPaired with a cancellable wait (see
// PushProcE): a successful pop consumes no cycle of its own.
func (f *Fifo[T]) PopProcPairedE(p *Proc, deadline int64) (T, WaitResult) {
	p.consuming()
	for !f.CanPop() {
		if r := p.waitCondCancel(&f.fifoCore, false, deadline); r != WaitOK {
			var zero T
			return zero, r
		}
	}
	v, _ := f.TryPop()
	return v, WaitOK
}

// PushAtBarrier enqueues v with every engine stopped at a group barrier,
// making it visible immediately (no registered-output delay) and waking
// attached kernels and blocked procs at the engine's current clock.
// With the engines stopped at clock c+1, this reproduces exactly what a
// dense-mode kernel pushing at cycle c would produce: the element
// commits in c's phase 3 and wakes everything for cycle c+1. Only group
// coordinators (e.g. the failover manager's packet rescue) may call it;
// from inside a running window it would break the registered-write
// contract (and, with writes pending, overwrite the oldest of them).
func (f *Fifo[T]) PushAtBarrier(v T) bool {
	if f.pendingIn != 0 {
		panic("sim: PushAtBarrier with registered writes pending")
	}
	if !f.CanPush() {
		if !f.stalled {
			f.stalled = true
			f.stallHint++
		}
		return false
	}
	f.stalled = false
	if f.buf == nil {
		f.buf = make([]T, f.capacity)
	}
	f.buf[f.slot(f.size)] = v
	f.size++
	f.pushes++
	if f.size > f.maxSize {
		f.maxSize = f.size
	}
	e := f.eng
	e.fifoCommits++
	for _, id := range f.kernWaiters {
		e.wakeKernelAt(id, e.now)
	}
	if len(f.dataWaiters) > 0 {
		for _, p := range f.dataWaiters {
			p.status = procRunnable
			p.runAt = e.now
			e.scheduleProc(p, p.runAt)
		}
		f.dataWaiters = f.dataWaiters[:0]
	}
	return true
}
