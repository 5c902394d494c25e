// Package sim implements a deterministic cycle-driven simulator used to
// model multi-FPGA systems at clock-cycle granularity.
//
// The engine advances a single global clock. Three kinds of entities
// participate in every cycle, in a fixed, deterministic order:
//
//  1. Procs: cooperative processes backed by coroutines. A proc models a
//     pipelined HLS kernel written as straight-line code; every blocking
//     FIFO operation costs at least one clock cycle (initiation interval
//     of one).
//  2. Kernels: explicit state machines ticked once per cycle. These model
//     generated hardware such as the SMI transport layer.
//  3. FIFO commits: writes performed during a cycle become visible to
//     readers in the next cycle (registered output), mirroring the
//     semantics of Intel OpenCL channels.
//
// The engine detects global quiescence: if no entity makes progress and
// no future wake-up is scheduled while procs are still blocked, the run
// terminates with a deadlock error describing every blocked operation.
package sim

import (
	"errors"
	"fmt"
	"sort"
	"strings"
)

// Kernel is a hardware state machine ticked once per clock cycle.
// Tick reports whether the kernel performed or is holding work; the
// engine uses this to detect quiescence and to fast-forward idle spans.
type Kernel interface {
	Name() string
	Tick(now int64) bool
}

// ErrMaxCycles is returned by Run when the cycle limit is exceeded.
var ErrMaxCycles = errors.New("sim: maximum cycle count exceeded")

// DeadlockError reports a global deadlock: all processes are blocked and
// no hardware activity can ever unblock them.
type DeadlockError struct {
	Cycle   int64
	Blocked []string // one human-readable line per blocked proc
}

func (e *DeadlockError) Error() string {
	return fmt.Sprintf("sim: deadlock at cycle %d: %s", e.Cycle, strings.Join(e.Blocked, "; "))
}

// Engine is a single-clock cycle-driven simulator. The zero value is not
// usable; create engines with NewEngine.
type Engine struct {
	now     int64
	procs   []*Proc
	kernels []Kernel
	fifos   []*fifoCore

	maxCycles int64
	recorder  Recorder

	procState  []procStatus // last state reported to the recorder
	procSince  []int64
	kernActive []bool
	kernSince  []int64
	kernWasBuf []bool // scratch for per-cycle kernel activity

	started  bool
	finished int // number of finished procs

	// Event-driven scheduler state (see sched.go).
	sched      SchedulerKind
	phase      enginePhase
	curKernel  int32         // kernel index being ticked in phaseKernels
	kHot       tickSet       // kernels ticked every executed cycle
	kDue       tickSet       // parked kernels to tick this cycle
	kNext      tickSet       // parked kernels to tick next cycle
	pDue       tickSet       // procs to step this cycle
	pNext      tickSet       // procs to step next cycle
	pq         schedHeap     // far proc wakes: (wakeAt, proc index)
	kWheel     timingWheel   // far kernel wakes within wheelSpan cycles
	kq         schedHeap     // far kernel wakes beyond the wheel: (wakeAt, kernel index)
	kernWhen   []int64       // per-kernel live far wake (or kernUnscheduled)
	kernIdle   []IdleUntiler // cached IdleUntiler, nil if not implemented
	dirtyFifos []int32       // FIFOs touched this cycle, by registration index

	// effort counters (see SchedStats)
	executed    int64
	skipped     int64
	procSteps   int64
	kernelTicks int64
	fifoCommits int64

	// Windowed (shard-group) state: a Group drives the engine one
	// lookahead window at a time instead of to completion (see shard.go).
	windowed     bool
	horizon      int64             // exclusive window end while windowed
	eventInit    bool              // runEvent seeding done
	procsDoneAt  int64             // max over finished procs of (finish cycle + 1)
	boundaries   []boundaryFlusher // outbound: flushed by the Group at barriers
	inBoundaries []boundaryInlet   // inbound: merged into earliestEvent
	// windowIdleUntil is the event loop's own quiescence estimate,
	// maintained every executed cycle: the phase-4 fast-forward target
	// (pre horizon clamp) after a cycle that fast-forwards, Never when
	// nothing is scheduled at all, and now+1 otherwise; a wake issued
	// between windows lowers it (see expectWake). It is what the
	// engine knows about its own future at a window boundary — hot
	// kernels and due-this-cycle work included, which the far queues
	// alone are not.
	windowIdleUntil int64

	// progress observer (see SetProgress)
	progressEvery int64
	progressFn    func(now int64)
	nextProgress  int64
}

// Recorder receives activity intervals for offline visualization (see
// internal/vistrace for a Chrome trace-event implementation). Intervals
// are reported as they close; Done closes any still-open intervals.
type Recorder interface {
	// ProcInterval reports that proc name was in the given state
	// ("run", "blocked", "sleep") during [start, end) cycles.
	ProcInterval(name, state string, start, end int64)
	// KernelInterval reports that kernel name was active during
	// [start, end) cycles.
	KernelInterval(name string, start, end int64)
	// Done marks the end of the simulation.
	Done(now int64)
}

// NewEngine returns an engine with a default cycle limit of one billion
// cycles (several seconds of simulated time at typical FPGA clocks).
func NewEngine() *Engine {
	return &Engine{maxCycles: 1_000_000_000, sched: SchedEvent}
}

// SetMaxCycles bounds the simulation; Run returns ErrMaxCycles beyond it.
func (e *Engine) SetMaxCycles(n int64) { e.maxCycles = n }

// SetRecorder attaches an activity recorder (see Recorder). Recording
// costs a scan over procs and kernels per simulated cycle.
func (e *Engine) SetRecorder(r Recorder) { e.recorder = r }

// SetProgress installs a progress observer: fn is called at most once
// per executed cycle, whenever the clock reaches or crosses a multiple
// of `every` cycles (fast-forwarded spans fire at the first executed
// cycle past the boundary). The callback is purely observational — it
// runs between cycles and must not touch simulation state — so it never
// perturbs cycle counts under either scheduler.
func (e *Engine) SetProgress(every int64, fn func(now int64)) {
	if every <= 0 || fn == nil {
		e.progressEvery, e.progressFn = 0, nil
		return
	}
	e.progressEvery, e.progressFn = every, fn
	e.nextProgress = every
}

// maybeProgress fires the progress observer if the clock has reached
// the next reporting boundary.
func (e *Engine) maybeProgress() {
	if e.progressFn == nil || e.now < e.nextProgress {
		return
	}
	e.progressFn(e.now)
	e.nextProgress = e.now - e.now%e.progressEvery + e.progressEvery
}

// stateName maps a proc status to its recorder label.
func stateName(s procStatus) string {
	switch s {
	case procRunnable:
		return "run"
	case procBlocked:
		return "blocked"
	case procSleeping:
		return "sleep"
	default:
		return "done"
	}
}

// record samples proc and kernel states at the end of a cycle, closing
// intervals on transitions.
func (e *Engine) record(kernelWasActive []bool) {
	if e.procState == nil {
		e.procState = make([]procStatus, len(e.procs))
		e.procSince = make([]int64, len(e.procs))
		for i, p := range e.procs {
			e.procState[i] = p.status
		}
		e.kernActive = make([]bool, len(e.kernels))
		e.kernSince = make([]int64, len(e.kernels))
	}
	for i, p := range e.procs {
		if p.status != e.procState[i] {
			e.recorder.ProcInterval(p.name, stateName(e.procState[i]), e.procSince[i], e.now)
			e.procState[i] = p.status
			e.procSince[i] = e.now
		}
	}
	for i, k := range e.kernels {
		if kernelWasActive[i] != e.kernActive[i] {
			if e.kernActive[i] {
				e.recorder.KernelInterval(k.Name(), e.kernSince[i], e.now)
			}
			e.kernActive[i] = kernelWasActive[i]
			e.kernSince[i] = e.now
		}
	}
}

// finishRecording closes open intervals at simulation end.
func (e *Engine) finishRecording() {
	if e.recorder == nil || e.procState == nil {
		return
	}
	for i, p := range e.procs {
		if e.procSince[i] < e.now {
			e.recorder.ProcInterval(p.name, stateName(e.procState[i]), e.procSince[i], e.now)
		}
	}
	for i, k := range e.kernels {
		if e.kernActive[i] && e.kernSince[i] < e.now {
			e.recorder.KernelInterval(k.Name(), e.kernSince[i], e.now)
		}
	}
	e.recorder.Done(e.now)
}

// Now returns the current cycle number.
func (e *Engine) Now() int64 { return e.now }

// AddKernel registers a state-machine kernel and returns its ID. Kernels
// tick in registration order, after procs run and before FIFO writes
// commit. The ID is used to attach wake sources (Fifo.WakesKernel,
// Fifo.WakeOnSpace) and for explicit wakes (Engine.WakeKernel).
func (e *Engine) AddKernel(k Kernel) KernelID {
	if e.started {
		panic("sim: AddKernel after Run")
	}
	id := KernelID(len(e.kernels))
	e.kernels = append(e.kernels, k)
	return id
}

// maxCyclesErr wraps ErrMaxCycles with the configured limit.
func maxCyclesErr(limit int64) error {
	return fmt.Errorf("%w (limit %d)", ErrMaxCycles, limit)
}

// Run executes the simulation until every proc has finished, the engine
// quiesces with nothing scheduled, a deadlock is detected, a proc fails,
// or the cycle limit is reached. It returns the first error encountered,
// or nil on clean completion. The scheduling mode (SetScheduler) changes
// only wall-clock cost, never simulated behavior.
func (e *Engine) Run() error {
	e.startAll()
	defer e.finishRecording()
	if e.sched == SchedDense {
		return e.runDense()
	}
	// SchedShardAdaptive on a lone engine is the event scheduler; the
	// parallelism lives in the Group driver (shard.go).
	return e.runEvent()
}

// runDense is the reference scheduler: every proc, kernel, and FIFO is
// visited on every executed cycle. It is kept as the baseline that the
// event scheduler must match cycle for cycle.
func (e *Engine) runDense() error {
	for {
		if e.finished == len(e.procs) && len(e.procs) > 0 {
			return nil
		}
		if e.now >= e.maxCycles {
			e.stopProcs()
			return maxCyclesErr(e.maxCycles)
		}
		e.maybeProgress()
		e.executed++
		active := false

		// Phase 1: run every runnable proc once. A blocked proc whose
		// wait deadline has arrived is woken with WaitTimeout — the
		// dense mirror of the event scheduler's deadline heap entry.
		e.phase = phaseProcs
		for _, p := range e.procs {
			switch p.status {
			case procSleeping:
				if p.wakeAt > e.now {
					continue
				}
				p.status = procRunnable
			case procRunnable:
				if p.runAt > e.now {
					continue
				}
			case procBlocked:
				if p.deadline > e.now {
					continue
				}
				p.cancelWait(WaitTimeout)
				p.status = procRunnable
			default:
				continue
			}
			active = true
			if err := e.step(p); err != nil {
				e.stopProcs()
				return err
			}
		}

		// Phase 2: tick hardware kernels.
		e.phase = phaseKernels
		var kernelWas []bool
		if e.recorder != nil {
			if cap(e.kernWasBuf) < len(e.kernels) {
				e.kernWasBuf = make([]bool, len(e.kernels))
			}
			kernelWas = e.kernWasBuf[:len(e.kernels)]
		}
		for i, k := range e.kernels {
			e.curKernel = int32(i)
			did := k.Tick(e.now)
			e.kernelTicks++
			if did {
				active = true
			}
			if kernelWas != nil {
				kernelWas[i] = did
			}
		}
		e.curKernel = int32(len(e.kernels))

		// Phase 3: commit registered FIFO writes, then wake waiters.
		e.phase = phaseCommit
		for _, f := range e.fifos {
			if f.commit() {
				active = true
				e.fifoCommits++
			}
		}
		for _, f := range e.fifos {
			f.wake(e)
		}
		if e.recorder != nil {
			e.record(kernelWas)
		}

		// Phase 4: termination and fast-forward.
		e.phase = phaseIdle
		if !active {
			next, sleeping := e.nextWake()
			if kd, ok := e.denseKernelDeadline(); ok && (!sleeping || kd < next) {
				next, sleeping = kd, true
			}
			switch {
			case sleeping:
				// Idle span: jump straight to the next scheduled wake-up,
				// or to the cycle limit if that comes first.
				if next > e.maxCycles {
					next = e.maxCycles
				}
				if next > e.now+1 {
					e.skipped += next - e.now - 1
					e.now = next
					continue
				}
			case e.finished < len(e.procs):
				err := e.deadlock()
				e.stopProcs()
				return err
			default:
				// Kernel-only (or empty) quiescence: nothing scheduled,
				// no proc waiting — a clean end.
				return nil
			}
		}
		e.now++
	}
}

// denseKernelDeadline returns the earliest scheduled wake among idle
// kernels that declare one. Called only on globally inactive cycles, so
// every kernel's Tick returned false this cycle and IdleUntil is valid
// to query.
func (e *Engine) denseKernelDeadline() (int64, bool) {
	at, ok := Never, false
	for _, k := range e.kernels {
		iu, has := k.(IdleUntiler)
		if !has {
			continue
		}
		w := iu.IdleUntil(e.now)
		if w <= e.now || w >= Never {
			continue
		}
		if w < at {
			at = w
		}
		ok = true
	}
	return at, ok
}

// step switches into proc p until its next pause (or its end).
func (e *Engine) step(p *Proc) error {
	e.procSteps++
	p.next()
	if p.status == procFinished {
		e.finished++
		// The cycle the dense scan would report if this were the last
		// proc: the finish cycle plus the final clock increment. The
		// shard group quotes max(procsDoneAt) as the run's cycle count so
		// completion cycles stay invariant across shard counts.
		if at := e.now + 1; at > e.procsDoneAt {
			e.procsDoneAt = at
		}
		if p.err != nil {
			return fmt.Errorf("sim: proc %s: %w", p.name, p.err)
		}
	}
	return nil
}

// nextWake returns the earliest future wake-up among sleeping and
// runnable procs, and the armed wait deadlines of blocked procs: a
// blocked proc with a deadline is not deadlocked — its timeout is a
// scheduled wake the fast-forward must not skip.
func (e *Engine) nextWake() (at int64, ok bool) {
	at = Never
	for _, p := range e.procs {
		switch p.status {
		case procSleeping:
			if p.wakeAt < at {
				at = p.wakeAt
			}
			ok = true
		case procRunnable:
			if p.runAt < at {
				at = p.runAt
			}
			ok = true
		case procBlocked:
			if p.deadline < Never {
				if p.deadline < at {
					at = p.deadline
				}
				ok = true
			}
		}
	}
	return at, ok
}

// CancelWaits aborts every proc currently blocked in a cancellable FIFO
// wait: each such wait returns WaitAborted on the next cycle, and the
// proc is removed from its FIFO's waiter list. Procs blocked in plain
// (non-cancellable) waits are untouched. Returns the number of waits
// cancelled. Safe to call from Kernel.Tick; the cancellation takes
// effect with the same timing under both schedulers.
func (e *Engine) CancelWaits() int {
	return e.CancelWaitsAt(e.now + 1)
}

// CancelWaitsAt is CancelWaits with an explicit resumption cycle. Group
// coordinators use it between windows: a dense-mode kernel cancelling at
// cycle c resumes procs at c+1, so a barrier-time coordinator running
// with every engine stopped at clock c+1 passes at = c+1 to reproduce
// the identical resumption timing.
func (e *Engine) CancelWaitsAt(at int64) int {
	n := 0
	for _, p := range e.procs {
		if p.status == procBlocked && p.cancellable {
			p.cancelWait(WaitAborted)
			p.status = procRunnable
			p.runAt = at
			e.scheduleProc(p, p.runAt)
			n++
		}
	}
	return n
}

// WakeKernelAt schedules a tick for a parked kernel at the given cycle
// (waking an unparked kernel is a no-op). Unlike WakeKernel it does not
// infer the cycle from the engine phase: it is meant for barrier-time
// callers — group coordinators and boundary flushes — that know exactly
// which cycle the dense scan would have the kernel observe their effect.
func (e *Engine) WakeKernelAt(id KernelID, at int64) {
	e.wakeKernelAt(id, at)
}

func (e *Engine) deadlock() error {
	blocked := e.blockedProcs()
	sort.Strings(blocked)
	return &DeadlockError{Cycle: e.now, Blocked: blocked}
}

// startAll creates every proc's coroutine; the Group driver calls it
// once in place of Run's own startup.
func (e *Engine) startAll() {
	e.started = true
	for _, p := range e.procs {
		p.start()
	}
}

// runWindow advances the engine from its current cycle to exactly the
// given horizon (exclusive): on return e.now == horizon unless a proc
// failed. Conservative-parallel contract: the engine must receive no
// external input (boundary flushes, wakes from other engines) while a
// window is running.
func (e *Engine) runWindow(horizon int64) error {
	e.windowed = true
	e.horizon = horizon
	err := e.runEvent()
	if err == nil && e.now < horizon {
		// A clean early return cannot happen (the loop only returns at
		// the horizon), but keep the clock consistent defensively.
		e.now = horizon
	}
	return err
}

// earliestEvent returns the earliest cycle at which this engine would do
// work: its own loop's quiescence estimate (windowIdleUntil, which
// covers hot kernels and scheduled wakes alike) merged with inbound
// boundary arrivals the engine has not yet had a cycle to observe
// (readyAt >= now; older stuck heads need a local event first, which the
// estimate already covers). Never means the engine is quiescent until
// further boundary traffic. Called between windows only
// (single-threaded, boundaries flushed).
func (e *Engine) earliestEvent() int64 {
	next := e.windowIdleUntil
	for _, b := range e.inBoundaries {
		if r := b.NextReadyAt(); r >= e.now && r < next {
			next = r
		}
	}
	if next < e.now {
		next = e.now
	}
	if next >= Never {
		return Never
	}
	return next
}

// jumpTo fast-forwards an idle engine to cycle `at` without executing
// anything; the caller (the Group) guarantees earliestEvent reported
// nothing before it. Wakes the engine holds regardless (a flush queued
// behind a stuck boundary head) stay due and run at the first cycle it
// does execute.
func (e *Engine) jumpTo(at int64) {
	if at > e.now {
		e.skipped += at - e.now
		for c := e.now; c < at && c < e.now+wheelSpan; c++ {
			e.kWheel.drainInto(c, e.kDue)
		}
		e.advance(at)
	}
}

// blockedProcs returns one human-readable line per blocked proc, for
// group-level deadlock reports.
func (e *Engine) blockedProcs() []string {
	var blocked []string
	for _, p := range e.procs {
		if p.status == procBlocked {
			what := "data"
			if p.waitSpace {
				what = "space"
			}
			blocked = append(blocked, fmt.Sprintf("%s waiting on %s in fifo %s", p.name, what, p.waitFifo.name))
		}
	}
	return blocked
}

// stopProcs unwinds every unfinished proc before a failed run returns:
// deferred functions of entered bodies run, unentered bodies never do,
// and no coroutine outlives the run.
func (e *Engine) stopProcs() {
	for _, p := range e.procs {
		if p.status != procFinished {
			p.stop()
		}
	}
}
