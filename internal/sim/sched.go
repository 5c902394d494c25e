package sim

import "math/bits"

// Event-driven scheduler. The engine supports two scheduling modes that
// are required to be cycle-for-cycle equivalent:
//
//   - SchedDense is the reference implementation: every proc, kernel,
//     and FIFO is visited on every executed cycle.
//   - SchedEvent visits only components with work. Activity is kept in
//     index-ordered bitsets (tickSet): kernels have a hot set (tick every
//     executed cycle), a due set (tick this cycle) and a next set (tick
//     the cycle after); procs have the same due/next pair. A wake for
//     this cycle or the next is one bit. Wakes further out — a kernel's
//     link-latency arrivals, poll-pointer and IdleUntil horizons, a
//     proc's Sleep(n>=2) and wait deadlines — land in a bitset timing
//     wheel of wheelSpan cycles, one per component kind; wakes beyond it
//     (retransmit timers, launch overheads, channel deadlines) go through
//     a binary heap per component kind. FIFO commits are driven by a
//     dirty list.
//
// Determinism contract (see DESIGN.md): whenever several components are
// due on the same cycle, they run in registration-index order, which is
// exactly the order the dense scan visits them — and the order a bitset
// walk yields. Every commit-phase effect (a kernel or proc wake) lands in
// a bitset, so the order FIFOs commit in is unobservable. Kernels promise
// via IdleUntil that ticking them before their horizon would observe no
// state change and perform none, so skipping those ticks is unobservable.

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

// kernUnscheduled marks a kernel with no live far wake.
const kernUnscheduled = int64(-1)

// KernelID identifies a registered kernel; AddKernel returns it and
// WakeKernel, Fifo.WakesKernel and Fifo.WakeOnSpace accept it.
type KernelID int32

// noKernel is the empty Fifo.WakeOnSpace slot.
const noKernel = KernelID(-1)

// IdleUntiler is optionally implemented by kernels; a kernel without it
// is ticked every cycle. The event engine calls IdleUntil(now) after
// every Tick(now), active or not, and ticks the kernel next at the
// returned cycle w: a promise that every Tick in (now, w) would return
// false without changing any observable state. Returning now keeps the
// kernel hot (ticked every cycle), now+1 ticks it once more next cycle,
// and Never parks it until an external wake. A parked kernel is woken
// early by commits on FIFOs attached via WakesKernel (its inputs), by the
// next pop of a FIFO it armed with WakeOnSpace (an output it is blocked
// on), by boundary arrivals and by WakeKernel; early or duplicate ticks
// must be harmless. The dense scan calls IdleUntil only on globally
// inactive cycles, to bound its fast-forward.
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
	ProcSteps      int64  `json:"proc_steps"`      // coroutine resumptions (Proc.Run steps excluded)
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

// schedEntry is a far-queue element: a component index due at cycle
// `at`, two or more cycles out (for a kernel, wheelSpan or more) when it
// was pushed.
type schedEntry struct {
	at  int64
	idx int32
}

type schedHeap struct {
	h []schedEntry
}

func (q *schedHeap) len() int        { return len(q.h) }
func (q *schedHeap) top() schedEntry { return q.h[0] }

// less orders by cycle alone: entries that mature on the same cycle are
// merged into a tick set, which puts them in index order.
func (q *schedHeap) less(a, b int) bool { return q.h[a].at < q.h[b].at }

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

// tickSet is a bitset over registration indices. Same-cycle components
// run in registration order, so walking the words upward and each word
// with bits.TrailingZeros64 visits a due-set already sorted.
type tickSet []uint64

func (s tickSet) set(i int32) { s[i>>6] |= 1 << (uint(i) & 63) }

func (s tickSet) any() bool {
	for _, w := range s {
		if w != 0 {
			return true
		}
	}
	return false
}

// fill marks indices [0, n).
func (s tickSet) fill(n int) {
	for i := 0; i < n; i++ {
		s.set(int32(i))
	}
}

// drainInto ors s into dst and empties s.
func (s tickSet) drainInto(dst tickSet) {
	for i, w := range s {
		if w != 0 {
			dst[i] |= w
			s[i] = 0
		}
	}
}

// wheelSpan is the timing wheels' span in cycles, a power of two. It
// covers a link's one-way latency (link.DefaultLatency, 110 cycles: wire
// arrivals and credit returns) plus a full poll round of a CK with up to
// 18 inputs, and a proc's per-packet and per-row sleeps; a wake further
// out goes to the heap.
const wheelSpan = 128

// timingWheel holds the wakes due 2 to wheelSpan-1 cycles after the
// cycle that scheduled them, one wheel per component kind: row r is the
// tickSet of the components due at the one cycle of [now, now+wheelSpan)
// congruent to r. A component has at most one live far wake
// (Engine.kernWhen, Proc.schedAt) and superseding it clears its bit, so
// a row never holds a stale entry; occ marks the rows that may be
// non-empty.
type timingWheel struct {
	rows []uint64 // wheelSpan rows of kw words, allocated once per engine
	kw   int
	occ  [wheelSpan / 64]uint64
}

func (t *timingWheel) row(at int64) tickSet {
	r := int(at & (wheelSpan - 1))
	return t.rows[r*t.kw : (r+1)*t.kw]
}

func (t *timingWheel) add(at int64, j int32) {
	t.row(at).set(j)
	r := at & (wheelSpan - 1)
	t.occ[r>>6] |= 1 << (r & 63)
}

func (t *timingWheel) remove(at int64, j int32) {
	t.row(at)[j>>6] &^= 1 << (uint(j) & 63)
}

// holds reports whether the row of cycle `at` may hold wakes; it inlines,
// so the engine skips an empty row without a call.
func (t *timingWheel) holds(at int64) bool {
	r := uint(at) & (wheelSpan - 1)
	return t.occ[r>>6]&(1<<(r&63)) != 0
}

// drainInto moves the wakes for cycle `at` into due.
func (t *timingWheel) drainInto(at int64, due tickSet) {
	r := at & (wheelSpan - 1)
	if t.occ[r>>6]&(1<<(r&63)) == 0 {
		return
	}
	t.occ[r>>6] &^= 1 << (r & 63)
	t.row(at).drainInto(due)
}

// next returns the earliest cycle after now with a wake, or Never.
func (t *timingWheel) next(now int64) int64 {
	if t.occ == [wheelSpan / 64]uint64{} {
		return Never
	}
	for d := int64(1); d < wheelSpan; {
		r := (now + d) & (wheelSpan - 1)
		word := t.occ[r>>6] >> (r & 63)
		if word == 0 {
			d += 64 - (r & 63)
			continue
		}
		d += int64(bits.TrailingZeros64(word))
		if d >= wheelSpan {
			break
		}
		if t.row(now + d).any() {
			return now + d
		}
		r = (now + d) & (wheelSpan - 1)
		t.occ[r>>6] &^= 1 << (r & 63) // every wake in the row was cancelled
		d++
	}
	return Never
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
// kernel that is not parked, or the kernel that is ticking (its IdleUntil
// is asked next), is a no-op, so callers need not track parking state.
func (e *Engine) WakeKernel(id KernelID) {
	at := e.now + 1
	switch e.phase {
	case phaseProcs, phaseBarrier:
		at = e.now
	case phaseKernels:
		switch {
		case int32(id) > e.curKernel:
			at = e.now
		case int32(id) == e.curKernel:
			return
		}
	}
	e.wakeKernelAt(id, at)
}

// wakeKernelAt schedules a tick for a parked kernel at cycle `at` unless
// an earlier or equal tick is already scheduled. The due set is the cycle
// being executed (or, with the engine stopped, the next one it executes);
// the next set is e.now+1 and is merged into due whenever the clock moves
// (see advance), so a now+1 wake issued while stopped still lands a cycle
// after the one the engine has yet to run.
func (e *Engine) wakeKernelAt(id KernelID, at int64) {
	e.expectWake(at)
	j := int32(id)
	w, m := int(j>>6), uint64(1)<<(uint(j)&63)
	if w >= len(e.kHot) || e.kHot[w]&m != 0 {
		return // ticking every cycle anyway (the sets are empty under the dense scan)
	}
	switch {
	case at <= e.now:
		e.kDue[w] |= m
	case at == e.now+1:
		e.kNext[w] |= m
	case (e.kDue[w]|e.kNext[w])&m != 0:
		// already ticking sooner than any far wake
	default:
		if have := e.kernWhen[j]; have == kernUnscheduled || have > at {
			e.unparkKernel(j)
			e.parkKernel(j, at)
		}
	}
}

// parkKernel schedules kernel j's one live far wake, at >= now+2: in the
// timing wheel if it falls within its span, else in the heap.
func (e *Engine) parkKernel(j int32, at int64) {
	e.kernWhen[j] = at
	if at-e.now < wheelSpan {
		e.kWheel.add(at, j)
	} else {
		e.kq.push(at, j)
	}
}

// unparkKernel cancels kernel j's far wake, if any. A wheel wake has its
// bit cleared; a heap entry goes stale, which maturation and
// kernNextDeadline discard.
func (e *Engine) unparkKernel(j int32) {
	if at := e.kernWhen[j]; at != kernUnscheduled {
		e.kWheel.remove(at, j)
		e.kernWhen[j] = kernUnscheduled
	}
}

// expectWake lowers the engine's quiescence estimate (windowIdleUntil) to
// a wake at cycle `at`. Inside a cycle phase 4 recomputes the estimate
// anyway; a wake issued at a group barrier — a coordinator's action, a
// boundary flush, a rescued packet — must not be jumped over by an engine
// whose last executed cycle saw nothing scheduled.
func (e *Engine) expectWake(at int64) {
	if at < e.windowIdleUntil {
		e.windowIdleUntil = at
	}
}

// advance moves the clock forward to cycle `to`; whatever was scheduled
// for the cycle after the old one is due by then.
func (e *Engine) advance(to int64) {
	e.now = to
	e.kNext.drainInto(e.kDue)
	e.pNext.drainInto(e.pDue)
}

// scheduleProc records a proc wake for the event scheduler: a bit in the
// due or next set (split as in wakeKernelAt), a wheel bit, or beyond the
// wheel's span a heap entry. A proc has at most one live far wake — the
// one matching p.schedAt: re-scheduling (a FIFO wake beating an armed
// deadline) clears the older wake's wheel bit, or strands its heap entry,
// which maturation and fast-forward discard as stale.
func (e *Engine) scheduleProc(p *Proc, at int64) {
	if e.sched == SchedDense {
		return
	}
	if old := p.schedAt; old >= e.now {
		e.pWheel.remove(old, p.idx) // a no-op unless old is a wheel wake
	}
	p.schedAt = at
	e.expectWake(at)
	switch {
	case at <= e.now:
		e.pDue.set(p.idx)
	case at == e.now+1:
		e.pNext.set(p.idx)
	case at-e.now < wheelSpan:
		e.pWheel.add(at, p.idx)
	default:
		e.pq.push(at, p.idx)
	}
}

// kernNextDeadline returns the earliest live far kernel wake (Never if
// none), discarding stale heap entries.
func (e *Engine) kernNextDeadline() int64 {
	next := e.kWheel.next(e.now)
	for e.kq.len() > 0 {
		top := e.kq.top()
		if e.kernWhen[top.idx] != top.at {
			e.kq.pop() // stale: the kernel ticked or was rescheduled since
			continue
		}
		if top.at < next {
			next = top.at
		}
		break
	}
	return next
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

// wakeReader wakes the FIFO's reader kernel (see WakesKernel), which may
// be parked waiting for the data a commit just published.
func (c *fifoCore) wakeReader() {
	if c.reader != noKernel {
		c.eng.WakeKernel(c.reader)
	}
}

// ensureEventInit sizes the per-kernel state, the tick sets and the
// timing wheel from the registered counts and seeds them, once per run.
// Windowed runs (see Group) call runEvent once per window, so the seeding
// is guarded rather than inlined in the loop entry.
func (e *Engine) ensureEventInit() {
	if e.eventInit {
		return
	}
	e.eventInit = true
	e.kernIdle = make([]IdleUntiler, len(e.kernels))
	e.kernWhen = make([]int64, len(e.kernels))
	for j, k := range e.kernels {
		e.kernIdle[j], _ = k.(IdleUntiler)
		e.kernWhen[j] = kernUnscheduled
	}
	kw, pw := (len(e.kernels)+63)/64, (len(e.procs)+63)/64
	e.kHot, e.kDue, e.kNext = make(tickSet, kw), make(tickSet, kw), make(tickSet, kw)
	e.kWheel = timingWheel{rows: make([]uint64, wheelSpan*kw), kw: kw}
	e.pDue, e.pNext = make(tickSet, pw), make(tickSet, pw)
	e.pWheel = timingWheel{rows: make([]uint64, wheelSpan*pw), kw: pw}
	// All procs start runnable at cycle 0 and every kernel starts hot.
	e.pDue.fill(len(e.procs))
	e.kHot.fill(len(e.kernels))
}

// nextProcEvent returns the earliest live far proc wake (Never if none),
// discarding stale heap entries along the way.
func (e *Engine) nextProcEvent() int64 {
	next := e.pWheel.next(e.now)
	for e.pq.len() > 0 {
		top := e.pq.top()
		if e.procs[top.idx].schedAt != top.at {
			e.pq.pop() // stale: superseded by a later (re)schedule
			continue
		}
		if top.at < next {
			next = top.at
		}
		break
	}
	return next
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
				return nil
			}
			if e.now >= e.maxCycles {
				e.stopProcs()
				return maxCyclesErr(e.maxCycles)
			}
			e.maybeProgress()
		}
		e.executed++
		active := false

		// Phase 1: far proc wakes that matured join the due set, then the
		// due procs run in registration order. A far entry whose cycle no
		// longer matches the proc's live schedule is stale — a FIFO wake
		// or cancel superseded it. A due proc that is still blocked is an
		// armed deadline firing: the wait is cancelled with WaitTimeout.
		e.phase = phaseProcs
		if e.pWheel.holds(e.now) {
			e.pWheel.drainInto(e.now, e.pDue)
		}
		for e.pq.len() > 0 && e.pq.top().at <= e.now {
			if ent := e.pq.pop(); e.procs[ent.idx].schedAt == ent.at {
				e.pDue.set(ent.idx)
			}
		}
		for w := range e.pDue {
			for e.pDue[w] != 0 {
				b := bits.TrailingZeros64(e.pDue[w])
				e.pDue[w] &^= 1 << b
				p := e.procs[w<<6|b]
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
		}

		// Phase 2: far kernel wakes that matured join the due set, then hot
		// and due kernels tick in index order. hot|due is re-read above
		// the last ticked bit after every tick, so a same-cycle wake of a
		// later kernel joins the pass.
		e.phase = phaseKernels
		if e.recorder != nil {
			if cap(e.kernWasBuf) < len(e.kernels) {
				e.kernWasBuf = make([]bool, len(e.kernels))
			}
			e.kernWasBuf = e.kernWasBuf[:len(e.kernels)]
			for i := range e.kernWasBuf {
				e.kernWasBuf[i] = false
			}
		}
		if e.kWheel.holds(e.now) {
			e.kWheel.drainInto(e.now, e.kDue)
		}
		for e.kq.len() > 0 && e.kq.top().at <= e.now {
			if ent := e.kq.pop(); e.kernWhen[ent.idx] == ent.at {
				e.kDue.set(ent.idx)
			}
		}
		hot := e.kHot
		due, nxt := e.kDue[:len(hot)], e.kNext[:len(hot)] // equal lengths, stated for bounds-check elimination
		for w := range hot {
			var done uint64 // bits up to and including the last ticked one
			for {
				pend := (hot[w] | due[w]) &^ done
				if pend == 0 {
					break
				}
				m := pend & -pend
				done = m | (m - 1)
				j := int32(w<<6 | bits.TrailingZeros64(pend))
				e.curKernel = j
				did := e.kernels[j].Tick(e.now)
				e.kernelTicks++
				if did {
					active = true
				}
				if e.recorder != nil {
					e.kernWasBuf[j] = did
				}
				iu := e.kernIdle[j]
				if iu == nil {
					continue // hot for good, so never woken or parked
				}
				// The tick supersedes every wake the kernel held: IdleUntil
				// names its next cycle from the state the tick left, and a
				// bit left standing would tick it twice.
				if (due[w]|nxt[w])&m != 0 {
					due[w] &^= m
					nxt[w] &^= m
				}
				e.unparkKernel(j)
				until := iu.IdleUntil(e.now)
				// Any future horizon becomes a scheduled park — even
				// now+1 — so phase 4 sees every pending wake and never
				// mistakes a waiting kernel for quiescence.
				switch {
				case until <= e.now:
					hot[w] |= m
				case until == e.now+1:
					hot[w] &^= m
					nxt[w] |= m
				default:
					hot[w] &^= m
					if until < Never {
						e.parkKernel(j, until)
					}
				}
			}
		}
		e.curKernel = int32(len(e.kernels))

		// Phase 3: commit each dirty FIFO, wake its reader kernel and its
		// blocked procs. A FIFO's wakes depend on its own state alone
		// and every wake lands in a bitset, so the order of the dirty list
		// does not matter.
		e.phase = phaseCommit
		for _, fi := range e.dirtyFifos {
			f := e.fifos[fi]
			f.dirty = false
			if f.commit() {
				active = true
				e.fifoCommits++
				f.wakeReader()
			}
			f.wake(e)
		}
		e.dirtyFifos = e.dirtyFifos[:0]
		if e.recorder != nil {
			e.record(e.kernWasBuf)
		}

		// Phase 4: termination and fast-forward. A next bit is an event
		// at now+1; hot kernels alone schedule nothing, so an inactive
		// cycle with only hot kernels still fast-forwards. An active cycle
		// fast-forwards too once no kernel is hot: every effect it had is
		// a scheduled wake by now. Three kinds of active cycle still end
		// at now+1, as the dense scan's do: the one the last proc finishes
		// on (the run ends there), one that leaves nothing scheduled at
		// all (the empty cycle after it ends the run or reports the
		// deadlock, and a group's coordinator sees the effect first), and
		// every traced one (the recorder closes activity intervals at the
		// next executed cycle).
		e.phase = phaseIdle
		e.windowIdleUntil = e.now + 1
		leap := !active || e.recorder == nil && (e.windowed || e.finished < len(e.procs)) && !e.kHot.any()
		if leap && !e.kNext.any() && !e.pNext.any() {
			next := e.nextProcEvent()
			if kd := e.kernNextDeadline(); kd < next {
				next = kd
			}
			if next == Never && active {
				next = e.now + 1
			}
			e.windowIdleUntil = next
			if next == Never && !e.windowed {
				if e.finished == len(e.procs) {
					// Kernel-only (or empty) quiescence: nothing is
					// scheduled and no proc is waiting — a clean end.
					return nil
				}
				err := e.deadlock()
				e.stopProcs()
				return err
			}
			// Quiescent through the window boundary (whether anything
			// happens later is the group's call) or through the cycle
			// limit: jump exactly there.
			limit := e.maxCycles
			if e.windowed {
				limit = e.horizon
			}
			if next > limit {
				next = limit
			}
			if next > e.now+1 {
				e.skipped += next - e.now - 1
				e.advance(next)
				continue
			}
		}
		e.advance(e.now + 1)
	}
}
