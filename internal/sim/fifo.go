package sim

import (
	"fmt"
	"math"
	"slices"
)

// fifoCore holds the type-independent bookkeeping of a FIFO: occupancy,
// capacity, and the kernels and procs it wakes. What TryPush, TryPop and
// commit test comes first: with Fifo's ring pointer ahead of it, the
// first 64 bytes of a Fifo. A Fifo[packet.Packet] is 112 bytes.
type fifoCore struct {
	size      int32    // committed (reader-visible) occupancy
	pendingIn int32    // writes performed this cycle, not yet visible
	head      int32    // ring index of the oldest committed element
	capacity  int32    // depth: what CanPush enforces, not the ring's length
	reader    KernelID // reader kernel woken by commits (see WakesKernel), or noKernel
	spaceKern KernelID // writer kernel to wake on the next pop (see WakeOnSpace), or noKernel
	eng       *Engine
	index     int32 // registration index in the engine's FIFO list
	dirty     bool  // on the engine's dirty list this cycle
	stalled   bool  // inside a blocked-push window (stall accounting)

	// statistics
	pushes    uint64
	maxSize   int32
	nameIdx   int32  // this FIFO's index in its slab, name's argument
	stallHint uint64 // blocked-push windows (backpressure events)

	// Procs blocked on space and on data: intrusive lists through
	// Proc.nextWaiter, oldest first (a proc waits on one FIFO at a time).
	spaceWaiters, dataWaiters *Proc

	// name formats the name of FIFO nameIdx of its slab (see NewFifos);
	// the string exists only while someone reads it.
	name func(i int) string
}

// wake transitions procs blocked on this FIFO back to runnable once the
// condition they wait for holds. Called at the end of each cycle, after
// commits; woken procs run no earlier than the following cycle.
func (c *fifoCore) wake(e *Engine) {
	if c.size > 0 && c.dataWaiters != nil {
		e.releaseWaiters(&c.dataWaiters, e.now+1)
	}
	if c.size+c.pendingIn < c.capacity && c.spaceWaiters != nil {
		e.releaseWaiters(&c.spaceWaiters, e.now+1)
	}
}

// waiters returns the head of the list of procs blocked on the FIFO for
// space or for data.
func (c *fifoCore) waiters(space bool) **Proc {
	if space {
		return &c.spaceWaiters
	}
	return &c.dataWaiters
}

// releaseWaiters makes every proc of a waiter list runnable at cycle at
// and empties the list.
func (e *Engine) releaseWaiters(list **Proc, at int64) {
	p := *list
	*list = nil
	for p != nil {
		next := p.nextWaiter
		p.nextWaiter = nil
		p.status = procRunnable
		p.runAt = at
		e.scheduleProc(p, at)
		p = next
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

// Fifo is a bounded queue with registered writes: an element pushed
// during cycle t becomes visible to readers at cycle t+1, mirroring the
// one-cycle output latency of an on-chip FIFO. Pops take effect
// immediately (the freed slot is reusable in the same cycle).
//
// A Fifo supports one logical reader and one logical writer, matching
// the single-reader/single-writer restriction of Intel OpenCL channels
// that the paper's reference implementation works within.
//
// Its ring costs what the FIFO holds, not its depth: the first push
// allocates minRing slots, and a push that finds the ring full doubles
// it, up to Cap. A FIFO nobody writes costs its struct alone, and Cap
// always reports the full depth.
type Fifo[T any] struct {
	buf []T // ring: size committed elements from head, then pendingIn registered writes; nil until the first push
	fifoCore
}

// minRing is the ring length a FIFO's first push allocates (or its
// capacity, if smaller).
const minRing = 2

// NewFifos creates n FIFOs in one allocation and registers them with the
// engine, in index order, for end-of-cycle commits. FIFO i holds
// capacity(i) elements (at least 1, at most math.MaxInt32); capacity is
// called only here. name(i) formats FIFO i's name each time Name is
// called, so a builder of many FIFOs formats no string a run never shows.
func NewFifos[T any](e *Engine, n int, capacity func(i int) int, name func(i int) string) []Fifo[T] {
	if e.started {
		panic("sim: NewFifos after Run")
	}
	slab := make([]Fifo[T], n)
	e.fifos = slices.Grow(e.fifos, n)
	for i := range slab {
		f := &slab[i]
		f.eng, f.name, f.nameIdx = e, name, int32(i)
		f.index, f.reader, f.spaceKern = int32(len(e.fifos)), noKernel, noKernel
		f.capacity = int32(min(max(capacity(i), 1), math.MaxInt32))
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

// WakesKernel attaches the FIFO's reader kernel: commits on the FIFO wake
// it if it is parked waiting for data (see IdleUntiler). A FIFO has one
// reader, so attaching a second, different kernel panics. A writer does
// not attach: its own pushes would wake it for nothing (see WakeOnSpace).
func (f *Fifo[T]) WakesKernel(id KernelID) {
	if f.reader != noKernel && f.reader != id {
		panic(fmt.Sprintf("sim: FIFO %s already wakes kernel %d, its reader; cannot attach kernel %d", f.Name(), f.reader, id))
	}
	f.reader = id
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
func (f *Fifo[T]) Cap() int { return int(f.capacity) }

// Len returns the committed (reader-visible) occupancy.
func (f *Fifo[T]) Len() int { return int(f.size) }

// Pushes returns the total number of elements ever pushed.
func (f *Fifo[T]) Pushes() uint64 { return f.pushes }

// MaxLen returns the high-water mark of committed occupancy.
func (f *Fifo[T]) MaxLen() int { return int(f.maxSize) }

// CanPush reports whether a push would be accepted this cycle.
func (f *Fifo[T]) CanPush() bool { return f.size+f.pendingIn < f.capacity }

// CanPop reports whether committed data is available.
func (f *Fifo[T]) CanPop() bool { return f.size > 0 }

// slot returns the ring index k elements past the oldest committed one.
func (f *Fifo[T]) slot(k int32) int32 {
	i := f.head + k
	if n := int32(len(f.buf)); i >= n {
		i -= n
	}
	return i
}

// reserve returns the ring index of the slot behind the committed and
// pending elements, growing the ring first if it is full. The caller has
// checked CanPush, so a full ring is shorter than the capacity. A grow
// unrolls the ring so that head is 0, pending writes included.
func (f *Fifo[T]) reserve() int32 {
	used := f.size + f.pendingIn
	if n := len(f.buf); int(used) == n {
		grown := make([]T, min(int(f.capacity), max(minRing, 2*n)))
		k := copy(grown, f.buf[f.head:])
		copy(grown[k:], f.buf[:f.head])
		f.buf, f.head = grown, 0
	}
	return f.slot(used)
}

// pushFailed records a rejected push for stall accounting.
func (f *Fifo[T]) pushFailed() {
	if !f.stalled {
		f.stalled = true
		f.stallHint++
	}
}

// TryPush enqueues v if space is available, reporting success. The
// element becomes visible to readers next cycle: it is written straight
// into the ring slot behind the committed and pending elements — pops
// advance head and shrink size together, so that slot stays put — and
// commit only has to count it in.
func (f *Fifo[T]) TryPush(v T) bool {
	if !f.CanPush() {
		f.pushFailed()
		return false
	}
	f.stalled = false
	f.buf[f.reserve()] = v
	f.pendingIn++
	f.pushes++
	f.markDirty()
	return true
}

// TryPop dequeues the oldest committed element, reporting success. The
// reader is the popper, so only the writer kernel may need a wake.
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
// its reader kernel and blocked procs at the engine's current clock.
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
		f.pushFailed()
		return false
	}
	f.stalled = false
	f.buf[f.reserve()] = v
	f.size++
	f.pushes++
	if f.size > f.maxSize {
		f.maxSize = f.size
	}
	e := f.eng
	e.fifoCommits++
	if f.reader != noKernel {
		e.wakeKernelAt(f.reader, e.now)
	}
	e.releaseWaiters(&f.dataWaiters, e.now)
	return true
}
