package sim

import (
	"errors"
	"fmt"
	"iter"
	"runtime/debug"
)

type procStatus uint8

const (
	procRunnable procStatus = iota
	procBlocked             // waiting on a FIFO condition
	procSleeping            // waiting for a specific cycle
	procFinished
)

// errKilled is thrown (via panic) into a proc body when the engine
// aborts; it unwinds the body and is swallowed by the runner.
var errKilled = errors.New("sim: proc killed")

// WaitResult reports how a cancellable FIFO wait ended.
type WaitResult uint8

const (
	// WaitOK: the awaited FIFO condition holds; the operation proceeded.
	WaitOK WaitResult = iota
	// WaitTimeout: the wait's deadline cycle arrived first.
	WaitTimeout
	// WaitAborted: the engine cancelled the wait (Engine.CancelWaits).
	WaitAborted
)

func (r WaitResult) String() string {
	switch r {
	case WaitOK:
		return "ok"
	case WaitTimeout:
		return "timeout"
	default:
		return "aborted"
	}
}

// schedNone marks a proc with no scheduled wake (event scheduler).
const schedNone = int64(-1)

// Proc is a cooperative process driven by the engine. A proc models a
// pipelined hardware kernel written as ordinary sequential Go code; every
// cycle-consuming operation (Tick, Sleep, blocking FIFO access) yields
// control back to the engine.
//
// The body runs as a coroutine (iter.Pull): the engine switches into it
// and it switches back, without a trip through the Go scheduler. When a
// run fails, every unfinished body is unwound before Run returns: a
// parked body panics out of its pending call and its deferred functions
// run; a body never entered never is. A body must not call
// runtime.Goexit (t.FailNow/Fatal/Skip included: it would take the
// engine's goroutine along) or runtime.LockOSThread (the engine resumes
// it from whichever worker goroutine owns the engine at the time).
//
// Proc methods must only be called from within the proc's own body
// function, never from other goroutines or from Kernel.Tick.
type Proc struct {
	name string
	eng  *Engine
	idx  int32 // registration index: the proc's bit in the tick sets
	body func(*Proc)

	// Coroutine hand-off (see start): next runs the body up to its next
	// pause, yield is the body's way back, stop unwinds a parked body.
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool

	status procStatus
	runAt  int64 // earliest cycle a runnable proc may run
	wakeAt int64 // wake cycle while sleeping
	err    error

	// Wait state. waitFifo/waitSpace name what a blocked proc waits for
	// (deadlock reports, waiter removal). A blocked proc whose wait was
	// armed with a deadline owns exactly one live scheduled wake at that
	// cycle; it fires the timeout if the FIFO wake has not already won.
	schedAt     int64      // cycle of the live scheduled wake (schedNone if none)
	deadline    int64      // absolute timeout cycle while blocked (Never if none)
	cancellable bool       // current wait may be cancelled (timeout/abort)
	waitFifo    *fifoCore  // FIFO the proc is (or was last) blocked on
	waitSpace   bool       // blocked on space (true) or data (false)
	waitRes     WaitResult // outcome of the last cancellable wait
}

// NewProc registers a process with the engine. The body runs when the
// engine's Run is called. Procs run once per cycle in registration order.
func NewProc(e *Engine, name string, body func(*Proc)) *Proc {
	if e.started {
		panic("sim: NewProc after Run")
	}
	p := &Proc{
		name:     name,
		eng:      e,
		idx:      int32(len(e.procs)),
		body:     body,
		schedAt:  schedNone,
		deadline: Never,
	}
	e.procs = append(e.procs, p)
	return p
}

// Name returns the proc's registered name.
func (p *Proc) Name() string { return p.name }

// Engine returns the engine this proc belongs to.
func (p *Proc) Engine() *Engine { return p.eng }

// Now returns the current cycle.
func (p *Proc) Now() int64 { return p.eng.now }

// start creates the proc's coroutine; the body is entered by the first
// next, and never if stop comes first. The panic filter sits inside the
// pulled function so that nothing escapes through next into the engine
// loop: a body panic becomes p.err, errKilled is swallowed.
func (p *Proc) start() {
	p.next, p.stop = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		defer func() {
			if r := recover(); r != nil {
				if err, ok := r.(error); !ok || !errors.Is(err, errKilled) {
					p.err = fmt.Errorf("panic: %v\n%s", r, debug.Stack())
				}
			}
			p.status = procFinished
		}()
		p.body(p)
	})
}

// pause yields control to the engine and blocks until resumed. Once the
// proc is killed every pause panics, so a body that recovers errKilled
// and keeps going is killed again at its next cycle-consuming call.
func (p *Proc) pause() {
	if !p.yield(struct{}{}) {
		panic(errKilled)
	}
}

// Tick consumes exactly one clock cycle.
func (p *Proc) Tick() {
	p.status = procSleeping
	p.wakeAt = p.eng.now + 1
	p.eng.scheduleProc(p, p.wakeAt)
	p.pause()
}

// Sleep consumes n clock cycles (n <= 0 consumes none). Sleeping models
// a span of pipelined computation with no externally visible events; the
// engine fast-forwards over fully idle spans, so long sleeps are cheap.
func (p *Proc) Sleep(n int64) {
	if n <= 0 {
		return
	}
	p.status = procSleeping
	p.wakeAt = p.eng.now + n
	p.eng.scheduleProc(p, p.wakeAt)
	p.pause()
}

// waitCond blocks the proc on a FIFO condition. The FIFO's wake pass
// marks the proc runnable again.
func (p *Proc) waitCond(c *fifoCore, space bool) {
	p.block(c, space)
	p.pause()
}

// block marks the proc blocked on c and queues it as a waiter.
func (p *Proc) block(c *fifoCore, space bool) {
	p.status = procBlocked
	p.waitFifo = c
	p.waitSpace = space
	if space {
		c.spaceWaiters = append(c.spaceWaiters, p)
	} else {
		c.dataWaiters = append(c.dataWaiters, p)
	}
}

// waitCondCancel blocks the proc on a FIFO condition like waitCond, but
// the wait can end three ways: the FIFO wake (WaitOK), the absolute
// deadline cycle arriving first (WaitTimeout), or an engine-wide cancel
// (WaitAborted). Pass Never for no deadline; the wait then stays
// cancellable by Engine.CancelWaits only.
//
// A deadline is a scheduled wake, not a per-cycle poll: in the event
// scheduler it is one scheduled wake at the deadline cycle, which the
// FIFO wake turns stale by re-scheduling the proc. An armed deadline
// that never fires is therefore invisible to the cycle count.
func (p *Proc) waitCondCancel(c *fifoCore, space bool, deadline int64) WaitResult {
	if deadline <= p.eng.now {
		return WaitTimeout
	}
	p.block(c, space)
	p.cancellable = true
	p.deadline = deadline
	p.waitRes = WaitOK
	if deadline < Never {
		p.eng.scheduleProc(p, deadline)
	}
	p.pause()
	res := p.waitRes
	p.cancellable = false
	p.deadline = Never
	return res
}

// cancelWait removes a blocked proc from its FIFO waiter list and stamps
// the wait outcome. The caller transitions the proc back to runnable.
func (p *Proc) cancelWait(res WaitResult) {
	if c := p.waitFifo; p.waitSpace {
		c.spaceWaiters = removeProc(c.spaceWaiters, p)
	} else {
		c.dataWaiters = removeProc(c.dataWaiters, p)
	}
	p.waitRes = res
}

// removeProc deletes p from a waiter list, preserving order.
func removeProc(list []*Proc, p *Proc) []*Proc {
	for i, q := range list {
		if q == p {
			return append(list[:i], list[i+1:]...)
		}
	}
	return list
}
