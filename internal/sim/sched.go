package sim

// Event-driven scheduler. The engine supports two scheduling modes that
// are required to be cycle-for-cycle equivalent:
//
//   - SchedDense is the reference implementation: every proc, kernel,
//     and FIFO is visited on every executed cycle.
//   - SchedEvent visits only components with work: procs live in a
//     min-heap keyed by wake cycle, kernels that declare an idle horizon
//     (IdleUntil) are parked until a scheduled deadline or an explicit
//     wake, and FIFO commits are driven by a dirty list.
//
// Determinism contract (see DESIGN.md): whenever several components are
// due on the same cycle, they are drained in registration-index order,
// which is exactly the order the dense scan visits them. Parked kernels
// promise via IdleUntil that ticking them before their horizon would
// observe no state change and perform none, so skipping those ticks is
// unobservable.

// SchedulerKind selects the engine's scheduling mode.
type SchedulerKind uint8

const (
	// SchedEvent is the activity-set scheduler (the default).
	SchedEvent SchedulerKind = iota
	// SchedDense is the reference dense-scan scheduler.
	SchedDense
	// SchedShardAdaptive is the conservative parallel scheduler: every
	// rank is its own Engine, engines exchange link traffic only at
	// boundary synchronizations, and each advances to its own horizon —
	// the minimum over its incoming boundaries of the producer's
	// lower-bound clock plus that boundary's latency (a per-edge
	// null-message bound). Engines are owned by a worker pool that
	// rebalances ownership at round boundaries with a deterministic
	// work-stealing rule (see Group). A single engine given
	// SchedShardAdaptive behaves exactly like SchedEvent; the parallelism
	// lives in the Group driver.
	SchedShardAdaptive
)

func (k SchedulerKind) String() string {
	switch k {
	case SchedDense:
		return "dense"
	case SchedShardAdaptive:
		return "shard-adaptive"
	default:
		return "event"
	}
}

// Never is the IdleUntil sentinel meaning "idle until an external wake":
// the kernel is parked with no scheduled deadline and resumes only when
// an attached FIFO or an explicit WakeKernel call wakes it.
const Never = int64(1<<63 - 1)

// kernUnscheduled marks a parked kernel with no live heap entry.
const kernUnscheduled = int64(-1)

// KernelID identifies a registered kernel; AddKernel returns it and
// WakeKernel / Fifo.WakesKernel accept it.
type KernelID int32

// IdleUntiler is optionally implemented by kernels. After Tick returns
// false, the engine may call IdleUntil(now); the returned cycle w is a
// promise that every Tick in (now, w) would return false without
// changing any observable state, so the engine may skip those ticks.
// Returning now+1 (or smaller) keeps the kernel in the every-cycle tick
// set; returning Never parks it until an external wake. A parked kernel
// is woken early by commits and pops on FIFOs attached via WakesKernel,
// and by WakeKernel; early or duplicate ticks must be harmless.
type IdleUntiler interface {
	IdleUntil(now int64) int64
}

// SchedStats summarizes scheduler effort for benchmarking. The JSON
// form is part of the stats schema smid serves and smibench -json
// emits.
type SchedStats struct {
	Scheduler      string `json:"scheduler"`       // "dense", "event", or "shard-adaptive"
	Cycles         int64  `json:"cycles"`          // final simulated cycle count
	CyclesExecuted int64  `json:"cycles_executed"` // cycles the engine actually iterated
	CyclesSkipped  int64  `json:"cycles_skipped"`  // cycles fast-forwarded over
	ProcSteps      int64  `json:"proc_steps"`      // proc resumptions
	KernelTicks    int64  `json:"kernel_ticks"`    // Kernel.Tick invocations
	FifoCommits    int64  `json:"fifo_commits"`    // commit calls that published writes
	// Shards is the number of worker slots a shard-adaptive run used (0
	// or 1 for a single-engine run), and Syncs the number of boundary
	// synchronizations the group performed.
	Shards int   `json:"shards,omitempty"`
	Syncs  int64 `json:"syncs,omitempty"`
	// Windows counts engine-window executions across the run (one window
	// per engine with pending work per round). Steals counts rank-engine
	// ownership moves performed by the deterministic work-stealing
	// rebalancer.
	Windows int64 `json:"windows,omitempty"`
	Steals  int64 `json:"steals,omitempty"`
	// PerShard breaks the effort counters down by worker slot for
	// shard-adaptive runs (slot-local work is the load-balance signal);
	// each row aggregates the engines the slot owned when the run ended.
	PerShard []ShardEffort `json:"per_shard,omitempty"`
}

// ShardEffort is one worker slot's slice of the group effort counters.
type ShardEffort struct {
	Shard          int   `json:"shard"`
	Procs          int   `json:"procs"` // simulated processes hosted by this slot
	CyclesExecuted int64 `json:"cycles_executed"`
	CyclesSkipped  int64 `json:"cycles_skipped"`
	ProcSteps      int64 `json:"proc_steps"`
	KernelTicks    int64 `json:"kernel_ticks"`
	FifoCommits    int64 `json:"fifo_commits"`
	Syncs          int64 `json:"syncs"`
	// Windows counts engine windows this slot executed; Steals counts
	// engines stolen into it.
	Windows int64 `json:"windows,omitempty"`
	Steals  int64 `json:"steals,omitempty"`
}

// engine phases, used to time same-cycle kernel wakes the way the dense
// scan would observe them.
type enginePhase uint8

const (
	phaseIdle enginePhase = iota
	phaseProcs
	phaseKernels
	phaseCommit
	// phaseBarrier marks an engine stopped at a group barrier with its
	// current cycle not yet executed: an effect applied now is observed
	// by kernels this very cycle, so WakeKernel wakes at e.now — the
	// timing a dense-mode kernel registered before them would produce.
	phaseBarrier
)

// schedEntry is a heap element: a component index due at cycle `at`.
// Entries with equal `at` order by index, which makes same-cycle heap
// drains match registration order.
type schedEntry struct {
	at  int64
	idx int32
}

type schedHeap struct {
	h []schedEntry
}

func (q *schedHeap) len() int        { return len(q.h) }
func (q *schedHeap) top() schedEntry { return q.h[0] }
func (q *schedHeap) less(a, b int) bool {
	if q.h[a].at != q.h[b].at {
		return q.h[a].at < q.h[b].at
	}
	return q.h[a].idx < q.h[b].idx
}

func (q *schedHeap) push(at int64, idx int32) {
	q.h = append(q.h, schedEntry{at, idx})
	i := len(q.h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q.h[i], q.h[parent] = q.h[parent], q.h[i]
		i = parent
	}
}

func (q *schedHeap) pop() schedEntry {
	top := q.h[0]
	last := len(q.h) - 1
	q.h[0] = q.h[last]
	q.h = q.h[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < len(q.h) && q.less(l, smallest) {
			smallest = l
		}
		if r < len(q.h) && q.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			return top
		}
		q.h[i], q.h[smallest] = q.h[smallest], q.h[i]
		i = smallest
	}
}

// intHeap is a min-heap of kernel indices used for same-cycle due sets.
type intHeap []int32

func (q *intHeap) push(v int32) {
	*q = append(*q, v)
	h := *q
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if h[i] >= h[parent] {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func (q *intHeap) pop() int32 {
	h := *q
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < len(h) && h[l] < h[smallest] {
			smallest = l
		}
		if r < len(h) && h[r] < h[smallest] {
			smallest = r
		}
		if smallest == i {
			break
		}
		h[i], h[smallest] = h[smallest], h[i]
		i = smallest
	}
	*q = h
	return top
}

// SetScheduler selects the scheduling mode. Must be called before Run.
func (e *Engine) SetScheduler(k SchedulerKind) {
	if e.started {
		panic("sim: SetScheduler after Run")
	}
	e.sched = k
}

// Scheduler returns the selected scheduling mode.
func (e *Engine) Scheduler() SchedulerKind { return e.sched }

// ExecutedCycles returns the number of cycles the engine has iterated
// (excluding fast-forwarded spans). Kernels that mirror per-cycle side
// effects of the dense scan (e.g. round-robin poll pointers) use this to
// catch up after being parked.
func (e *Engine) ExecutedCycles() int64 { return e.executed }

// SchedStats returns scheduler effort counters for the run so far.
func (e *Engine) SchedStats() SchedStats {
	return SchedStats{
		Scheduler:      e.sched.String(),
		Cycles:         e.now,
		CyclesExecuted: e.executed,
		CyclesSkipped:  e.skipped,
		ProcSteps:      e.procSteps,
		KernelTicks:    e.kernelTicks,
		FifoCommits:    e.fifoCommits,
	}
}

// WakeKernel asks the engine to tick kernel id at the earliest cycle the
// dense scan would have it observe the caller's effect: during the proc
// phase, the same cycle; during the kernel phase, the same cycle if id
// ticks after the currently ticking kernel, else the next cycle; at a
// group barrier (engine stopped, current cycle not yet executed), the
// same cycle; during commits (and outside Run), the next cycle. Waking a
// kernel that is not parked is a no-op, so callers need not track
// parking state.
func (e *Engine) WakeKernel(id KernelID) {
	at := e.now + 1
	switch e.phase {
	case phaseProcs, phaseBarrier:
		at = e.now
	case phaseKernels:
		if int32(id) > e.curKernel {
			at = e.now
		}
	}
	e.wakeKernelAt(id, at)
}

// wakeKernelAt schedules a tick for a parked kernel at cycle `at` unless
// an earlier or equal tick is already scheduled.
func (e *Engine) wakeKernelAt(id KernelID, at int64) {
	j := int32(id)
	if !e.kernParked[j] {
		return
	}
	if w := e.kernWhen[j]; w != kernUnscheduled && w <= at {
		return
	}
	e.kernWhen[j] = at
	e.kq.push(at, j)
}

// scheduleProc records a proc wake for the event scheduler. Each proc
// has at most one live heap entry — the one matching p.schedAt: procs
// enter the heap when they sleep, arm a wait deadline, or are woken from
// a FIFO wait, and leave it when stepped. Re-scheduling (e.g. a FIFO
// wake beating an armed deadline) strands the older entry, which the pop
// and fast-forward paths recognize as stale and discard.
func (e *Engine) scheduleProc(p *Proc, at int64) {
	if e.sched != SchedDense {
		p.schedAt = at
		e.pq.push(at, p.idx)
	}
}

// setHot moves kernel j into the every-cycle tick set.
func (e *Engine) setHot(j int32) {
	e.kernParked[j] = false
	e.kernWhen[j] = kernUnscheduled
	if !e.isHot[j] {
		e.isHot[j] = true
		e.hotDirty = true
	}
}

// parkKernel removes kernel j from the tick set until cycle w (or an
// external wake if w is Never).
func (e *Engine) parkKernel(j int32, w int64) {
	e.kernParked[j] = true
	if e.isHot[j] {
		e.isHot[j] = false
		e.hotDirty = true
	}
	if w < Never {
		e.kernWhen[j] = w
		e.kq.push(w, j)
	} else {
		e.kernWhen[j] = kernUnscheduled
	}
}

// rebuildHot regenerates the sorted hot-kernel snapshot from isHot.
func (e *Engine) rebuildHot() {
	e.hotK = e.hotK[:0]
	for j := range e.isHot {
		if e.isHot[j] {
			e.hotK = append(e.hotK, int32(j))
		}
	}
	e.hotDirty = false
}

// kernNextDeadline returns the earliest live scheduled kernel wake,
// discarding stale heap entries.
func (e *Engine) kernNextDeadline() (int64, bool) {
	for e.kq.len() > 0 {
		top := e.kq.top()
		if e.kernWhen[top.idx] != top.at {
			e.kq.pop() // stale: the kernel was rescheduled or woken
			continue
		}
		return top.at, true
	}
	return 0, false
}

// markDirty registers FIFO c for end-of-cycle processing on its first
// push or pop of the cycle. Pops matter too: they free space, and the
// wake pass must observe that.
func (c *fifoCore) markDirty() {
	if c.dirty || c.eng == nil || c.eng.sched == SchedDense {
		return
	}
	c.dirty = true
	c.eng.dirtyFifos = append(c.eng.dirtyFifos, c.index)
}

// wakeKernels wakes the kernels attached to this FIFO. Attached kernels
// are consumers or producers parked while the FIFO had no data (or no
// space) for them; a pop or commit may flip that condition.
func (c *fifoCore) wakeKernels() {
	for _, id := range c.kernWaiters {
		c.eng.WakeKernel(id)
	}
}

// ensureEventInit seeds the wake heap and hot set once per run. Windowed
// runs (see Group) call runEvent once per window, so the seeding is
// guarded rather than inlined in the loop entry.
func (e *Engine) ensureEventInit() {
	if e.eventInit {
		return
	}
	e.eventInit = true
	// All procs start runnable at cycle 0, in registration order.
	for _, p := range e.procs {
		p.schedAt = 0
		e.pq.push(0, p.idx)
	}
	for j := range e.kernels {
		e.isHot[j] = true
		e.hotK = append(e.hotK, int32(j))
	}
}

// nextProcEvent returns the earliest live proc wake in the event heap,
// discarding stale entries along the way.
func (e *Engine) nextProcEvent() int64 {
	for e.pq.len() > 0 {
		top := e.pq.top()
		p := e.procs[top.idx]
		if p.status == procFinished || p.schedAt != top.at {
			e.pq.pop() // stale: superseded by a later (re)schedule
			continue
		}
		return top.at
	}
	return Never
}

// runEvent is the activity-set scheduler loop. It must produce exactly
// the cycle-by-cycle behavior of runDense. In windowed mode it runs the
// clock up to (and stops exactly at) e.horizon; termination, deadlock,
// and cycle-limit decisions then belong to the Group driver.
func (e *Engine) runEvent() error {
	e.ensureEventInit()
	for {
		if e.windowed {
			if e.now >= e.horizon {
				return nil
			}
		} else {
			if e.finished == len(e.procs) && len(e.procs) > 0 {
				return e.drain()
			}
			if e.now >= e.maxCycles {
				e.stopProcs()
				return maxCyclesErr(e.maxCycles)
			}
			e.maybeProgress()
		}
		e.executed++
		active := false

		// Phase 1: run procs due this cycle, in registration order
		// (equal-cycle heap entries pop in index order). Entries whose
		// cycle no longer matches the proc's live schedule are stale —
		// a FIFO wake or cancel superseded them — and are discarded.
		// A live entry for a still-blocked proc is an armed deadline
		// firing: the wait is cancelled with WaitTimeout.
		e.phase = phaseProcs
		for e.pq.len() > 0 && e.pq.top().at <= e.now {
			ent := e.pq.pop()
			p := e.procs[ent.idx]
			if p.status == procFinished || p.schedAt != ent.at {
				continue // stale entry
			}
			p.schedAt = schedNone
			if p.status == procBlocked {
				p.cancelWait(WaitTimeout)
			}
			p.status = procRunnable
			active = true
			if err := e.step(p); err != nil {
				e.stopProcs()
				return err
			}
		}

		// Phase 2: tick hot kernels and due parked kernels, merged in
		// index order. Same-cycle wakes land in dueK mid-pass.
		e.phase = phaseKernels
		if e.hotDirty {
			e.rebuildHot()
		}
		if e.recorder != nil {
			if cap(e.kernWasBuf) < len(e.kernels) {
				e.kernWasBuf = make([]bool, len(e.kernels))
			}
			e.kernWasBuf = e.kernWasBuf[:len(e.kernels)]
			for i := range e.kernWasBuf {
				e.kernWasBuf[i] = false
			}
		}
		e.dueK = e.dueK[:0]
		drainDue := func() {
			for e.kq.len() > 0 {
				top := e.kq.top()
				if top.at > e.now {
					if e.kernWhen[top.idx] != top.at {
						e.kq.pop() // stale
						continue
					}
					break
				}
				e.kq.pop()
				if e.kernWhen[top.idx] != top.at {
					continue // stale
				}
				e.kernWhen[top.idx] = kernUnscheduled
				e.kernParked[top.idx] = false
				e.dueK.push(top.idx)
			}
		}
		drainDue()
		hi := 0
		for {
			var j int32 = -1
			if hi < len(e.hotK) {
				j = e.hotK[hi]
			}
			if len(e.dueK) > 0 && (j < 0 || e.dueK[0] < j) {
				j = e.dueK.pop()
			} else if j >= 0 {
				hi++
			} else {
				break
			}
			e.curKernel = j
			did := e.kernels[j].Tick(e.now)
			e.kernelTicks++
			if e.recorder != nil {
				e.kernWasBuf[j] = did
			}
			if did {
				active = true
				e.setHot(j)
			} else if iu := e.kernIdle[j]; iu != nil {
				// Any future horizon becomes a scheduled park — even
				// now+1 — so phase 4 sees every pending wake in the
				// heap and never mistakes a waiting kernel for
				// quiescence.
				if w := iu.IdleUntil(e.now); w > e.now {
					e.parkKernel(j, w)
				} else {
					e.setHot(j)
				}
			} else {
				e.setHot(j)
			}
			drainDue() // pick up same-cycle wakes issued by this tick
		}
		e.curKernel = int32(len(e.kernels))

		// Phase 3: commit dirty FIFOs in registration order, wake their
		// attached kernels, then wake blocked procs.
		e.phase = phaseCommit
		if len(e.dirtyFifos) > 1 {
			sortInt32(e.dirtyFifos)
		}
		for _, fi := range e.dirtyFifos {
			f := e.fifos[fi]
			if f.commit() {
				active = true
				e.fifoCommits++
				f.core.wakeKernels()
			}
		}
		for _, fi := range e.dirtyFifos {
			e.fifos[fi].core.wake(e)
		}
		for _, fi := range e.dirtyFifos {
			e.fifos[fi].core.dirty = false
		}
		e.dirtyFifos = e.dirtyFifos[:0]
		if e.recorder != nil {
			e.record(e.kernWasBuf)
		}

		// Phase 4: termination and fast-forward.
		e.phase = phaseIdle
		e.windowIdleUntil = e.now + 1
		if !active {
			next := e.nextProcEvent()
			if kd, ok := e.kernNextDeadline(); ok && kd < next {
				next = kd
			}
			e.windowIdleUntil = next
			if e.windowed && next > e.horizon {
				// Quiescent through the window boundary; whether anything
				// happens later (boundary traffic, other shards' procs) is
				// the group's call, so jump to the horizon and return.
				next = e.horizon
			}
			if next == Never {
				if e.finished == len(e.procs) {
					// Kernel-only (or empty) quiescence: nothing is
					// scheduled and no proc is waiting — a clean end.
					return e.drain()
				}
				err := e.deadlock()
				e.stopProcs()
				return err
			}
			if next > e.now+1 {
				e.skipped += next - e.now - 1
				e.now = next
				continue
			}
		}
		e.now++
	}
}

// sortInt32 is an insertion sort: dirty lists are short and nearly
// sorted (components touch FIFOs roughly in registration order).
func sortInt32(a []int32) {
	for i := 1; i < len(a); i++ {
		v := a[i]
		j := i - 1
		for j >= 0 && a[j] > v {
			a[j+1] = a[j]
			j--
		}
		a[j+1] = v
	}
}
