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
// control back to the engine; Run instead hands the engine a loop to
// drive without a yield per cycle.
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
	name     string
	eng      *Engine
	idx      int32 // registration index: the proc's bit in the tick sets
	status   procStatus
	stepping bool // a step of the proc's engine-run loop is running (see Run)
	body     func(*Proc)

	// Coroutine hand-off (see start): next runs the body up to its next
	// pause, yield is the body's way back, stop unwinds a parked body.
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool

	runAt  int64 // earliest cycle a runnable proc may run
	wakeAt int64 // wake cycle while sleeping
	err    error

	// Wait state. waitFifo/waitSpace name what a blocked proc waits for
	// (deadlock reports, waiter removal). A blocked proc whose wait was
	// armed with a deadline owns exactly one live scheduled wake at that
	// cycle; it fires the timeout if the FIFO wake has not already won.
	schedAt     int64      // cycle of the live scheduled wake (schedNone if none)
	deadline    int64      // absolute timeout cycle while blocked (Never if none)
	waitFifo    *fifoCore  // FIFO the proc is (or was last) blocked on
	nextWaiter  *Proc      // next proc in waitFifo's waiter list
	cancellable bool       // current wait may be cancelled (timeout/abort)
	waitSpace   bool       // blocked on space (true) or data (false)
	waitRes     WaitResult // outcome of the last cancellable wait

	// loop is the step of the proc's engine-run loop while the engine
	// drives it (see Run), or a stepPanic a step raised on the engine's
	// side, rethrown in the body when Run returns.
	loop Step
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

// consuming guards every call that may consume a cycle: inside an
// engine-run step it would pause the engine's own thread of control.
func (p *Proc) consuming() {
	if p.stepping {
		panic(fmt.Sprintf("sim: proc %s: cycle-consuming call inside an engine-run step", p.name))
	}
}

// Tick consumes exactly one clock cycle.
func (p *Proc) Tick() {
	p.consuming()
	p.sleep(1)
	p.pause()
}

// Sleep consumes n clock cycles (n <= 0 consumes none). Sleeping models
// a span of pipelined computation with no externally visible events; the
// engine fast-forwards over fully idle spans, so long sleeps are cheap.
func (p *Proc) Sleep(n int64) {
	if n <= 0 {
		return
	}
	p.consuming()
	p.sleep(n)
	p.pause()
}

// sleep parks the proc until n >= 1 cycles from now.
func (p *Proc) sleep(n int64) {
	p.status = procSleeping
	p.wakeAt = p.eng.now + n
	p.eng.scheduleProc(p, p.wakeAt)
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
	list := c.waiters(space)
	for *list != nil {
		list = &(*list).nextWaiter
	}
	*list = p
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
	p.blockCancel(c, space, deadline)
	p.pause()
	return p.endWait()
}

// blockCancel blocks the proc in a cancellable wait with the given
// deadline (> now), which is its one scheduled wake.
func (p *Proc) blockCancel(c *fifoCore, space bool, deadline int64) {
	p.block(c, space)
	p.cancellable = true
	p.deadline = deadline
	p.waitRes = WaitOK
	if deadline < Never {
		p.eng.scheduleProc(p, deadline)
	}
}

// endWait returns how the proc's last park ended, disarming it: the
// outcome of a cancellable wait, or WaitOK after a sleep.
func (p *Proc) endWait() WaitResult {
	if !p.cancellable {
		return WaitOK
	}
	p.cancellable = false
	p.deadline = Never
	return p.waitRes
}

// Step is the per-cycle body of an engine-run proc loop (see Proc.Run).
// Step does one cycle's share of the loop's work — Fifo.TryPush and
// Fifo.TryPop, which consume no cycle, and plain Go — and returns the
// proc's next wait. res is how the previous wait ended: WaitOK on the
// first call, after a sleep and when the awaited FIFO condition may
// hold (a step re-checks it); WaitTimeout or WaitAborted when a FIFO
// wait's deadline or an engine-wide cancel ended it.
type Step interface {
	Step(p *Proc, res WaitResult) Wait
}

// Wait is an engine-run step's next wait: sleep Cycles (>= 1) cycles,
// or block until Data holds an element or Space has room, cancellable
// like Fifo.PopProcE and Fifo.PushProcE — Deadline (Never for none)
// ends the wait with WaitTimeout, Engine.CancelWaits with WaitAborted.
// A Deadline at or before the current cycle times out at once, without
// parking. The zero Wait ends the loop.
type Wait struct {
	Cycles      int64
	Data, Space waitable
	Deadline    int64
}

// waitable is a FIFO a step can wait on: any *Fifo[T].
type waitable interface{ core() *fifoCore }

func (c *fifoCore) core() *fifoCore { return c }

// Run hands the engine a loop to run in the proc's own slot: the engine
// calls step on every cycle the proc is due, in registration order under
// every scheduler, and switches back into the body only when a step
// returns the zero Wait — Run then returns in that same cycle and slot.
// The first call is made inline, so a loop that ends without consuming a
// cycle costs no switch at all. A step makes exactly the FIFO operations
// and waits the equivalent body code would, so the cycle-level behaviour
// — II = 1 included — is the body's; only the coroutine resumptions
// between them are saved.
//
// A step must not call a cycle-consuming method (Tick, Sleep, the Fifo
// *Proc methods, Run): that panics naming the proc. A step's panic
// unwinds the body from Run, as if the body had raised it.
func (p *Proc) Run(step Step) {
	p.consuming()
	p.loop = step
	defer p.endLoop()
	p.stepping = true
	if !p.drive(WaitOK) {
		return
	}
	p.stepping = false
	p.pause()
	if sp, ok := p.loop.(stepPanic); ok {
		panic(sp.v)
	}
}

// stepPanic is a panic a step raised on the engine's side.
type stepPanic struct{ v any }

func (stepPanic) Step(*Proc, WaitResult) Wait { return Wait{} }

// endLoop clears the loop state when Run returns or unwinds.
func (p *Proc) endLoop() {
	p.loop = nil
	p.stepping = false
}

// drive calls the loop's step until it parks the proc (true) or ends
// the loop (false); res is how the proc's last wait ended.
func (p *Proc) drive(res WaitResult) bool {
	for {
		w := p.loop.Step(p, res)
		f, space := w.Data, false
		if w.Space != nil {
			f, space = w.Space, true
		}
		switch {
		case w.Cycles > 0:
			p.sleep(w.Cycles)
			return true
		case f == nil:
			return false
		case w.Deadline <= p.eng.now:
			res = WaitTimeout
			continue
		}
		p.blockCancel(f.core(), space, w.Deadline)
		return true
	}
}

// resumeLoop drives a due proc's loop from the engine. It reports
// whether the proc parked again; if not, the loop ended (or a step
// panicked) and the body resumes in this slot.
func (p *Proc) resumeLoop() (parked bool) {
	res := p.endWait()
	p.stepping = true
	defer func() {
		p.stepping = false
		if r := recover(); r != nil {
			p.loop = stepPanic{r}
			parked = false
		}
	}()
	return p.drive(res)
}

// cancelWait removes a blocked proc from its FIFO waiter list and stamps
// the wait outcome. The caller transitions the proc back to runnable.
func (p *Proc) cancelWait(res WaitResult) {
	list := p.waitFifo.waiters(p.waitSpace)
	for *list != nil && *list != p {
		list = &(*list).nextWaiter
	}
	if *list == p {
		*list, p.nextWaiter = p.nextWaiter, nil
	}
	p.waitRes = res
}
