package sim

// Conservative parallel simulation driver (SchedShardAdaptive). A Group
// owns one engine per rank; the engines share no mutable state except
// Boundary queues. Every boundary imposes latency, so each engine may
// advance to its own horizon — the minimum over its *incoming*
// boundaries of the producer's lower-bound clock plus that boundary's
// latency — before it has to see the producer's output. The lower bounds
// come from a bounded null-message fixpoint (see lowerBounds), so an
// engine whose neighbors are provably idle runs far past the global
// minimum latency, and engines with nothing scheduled jump their whole
// horizon in one hop.
//
// Determinism contract (see DESIGN.md "Parallel scheduler"): engine-local
// execution is the unmodified event loop; rounds flush boundaries in
// engine/registration order with all engines stopped; completion cycles
// are quoted from per-proc finish cycles (procsDoneAt), which makes the
// reported cycle count and every application-visible output invariant
// under the worker count. Effort counters (executed/skipped/ticks) and
// link tail traffic after the last proc finishes are quantized to the
// round structure and therefore compared at fixed worker counts only.
//
// Engines are owned by a worker pool with deterministic work stealing:
// ownership moves only at round boundaries, driven by
// simulation-derived effort counters (proc steps + kernel ticks), so a
// rebalance is cycle-invisible and identical across replays regardless
// of host scheduling.

import (
	"sort"
	"sync"
)

// Coordinator is a cluster-level control agent driven at group barriers
// instead of being ticked as a kernel (which would couple every engine
// through shared state). The group asks NextAction for the next cycle
// the coordinator may need to act at — no engine's clock passes it —
// and calls AtBarrier with all engines stopped at a common clock c+1,
// where the coordinator reproduces exactly what its dense-mode kernel
// tick at cycle c would have done. Quiescent reports whether the
// coordinator is inert when no engine has work (true means a globally
// idle group is a deadlock, not a pending repair).
type Coordinator interface {
	NextAction(base int64) int64
	AtBarrier(clock int64)
	Quiescent() bool
}

// Group runs a set of per-rank engines under barrier synchronization.
type Group struct {
	engines   []*Engine
	engIdx    map[*Engine]int
	window    int64 // min latency over crossing boundaries
	maxCycles int64
	workers   int // worker slots

	co Coordinator

	base    int64 // min engine clock
	syncs   int64
	cycles  int64 // final quoted cycle count (set when Run returns)
	windows int64 // engine-window executions
	steals  int64 // ownership moves

	// per-engine state
	engErr   []error
	next     []int64 // earliestEvent per engine, per round
	lb       []int64 // null-message lower bounds
	horizon  []int64 // per-engine window end, exclusive
	runSet   []bool  // engines executing a real window this round
	owner    []int   // engine -> worker slot
	recent   []int64 // decayed recent work per engine (steal signal)
	lastWork []int64 // procSteps+kernelTicks snapshot per engine
	wSteals  []int64 // engines stolen into each worker slot
	wWins    []int64 // windows executed by each worker slot
	order    []int   // scratch: engine indices for LPT sort
	load     []int64 // scratch: per-worker load sums

	progressEvery int64
	progressFn    func(now int64)
	nextProgress  int64
}

// NewGroup assembles the parallel driver over one engine per rank, owned
// by `workers` worker slots (clamped to [1, len(engines)]) with
// deterministic stealing. Call after every engine is fully built
// (kernels, FIFOs, boundaries): the round chunk is derived from the
// smallest cross-engine boundary latency. Engines run the event loop
// whatever their own scheduler setting.
func NewGroup(engines []*Engine, maxCycles int64, workers int) *Group {
	g := &Group{engines: engines, maxCycles: maxCycles}
	g.engIdx = make(map[*Engine]int, len(engines))
	for i, e := range engines {
		g.engIdx[e] = i
	}
	g.window = maxCycles
	for _, e := range engines {
		for _, bf := range e.boundaries {
			if w := bf.Latency(); w < g.window {
				g.window = w
			}
		}
	}
	if g.window < 1 {
		g.window = 1
	}
	if workers < 1 {
		workers = 1
	}
	if workers > len(engines) {
		workers = len(engines)
	}
	g.workers = workers
	n := len(engines)
	g.engErr = make([]error, n)
	g.next = make([]int64, n)
	g.lb = make([]int64, n)
	g.horizon = make([]int64, n)
	g.runSet = make([]bool, n)
	g.owner = make([]int, n)
	g.recent = make([]int64, n)
	g.lastWork = make([]int64, n)
	g.wSteals = make([]int64, workers)
	g.wWins = make([]int64, workers)
	g.order = make([]int, n)
	g.load = make([]int64, workers)
	// Initial placement: contiguous rank ranges.
	for i := range g.owner {
		g.owner[i] = i * workers / n
	}
	return g
}

// SetCoordinator installs the barrier-time control agent (the reliable
// cluster's failover manager). Must be called before Run.
func (g *Group) SetCoordinator(co Coordinator) { g.co = co }

// Syncs returns the number of barrier synchronizations performed.
func (g *Group) Syncs() int64 { return g.syncs }

// Steals returns the number of engine-ownership moves the deterministic
// rebalancer performed.
func (g *Group) Steals() int64 { return g.steals }

// Cycles returns the run's quoted cycle count: the completion cycle of
// the slowest proc on clean runs (invariant under the worker count), or
// the cycle the run stopped at on error.
func (g *Group) Cycles() int64 { return g.cycles }

// SetProgress installs a progress observer fired at barriers whenever
// the group clock reaches or crosses a multiple of `every` cycles —
// purely observational, like Engine.SetProgress.
func (g *Group) SetProgress(every int64, fn func(now int64)) {
	if every <= 0 || fn == nil {
		g.progressEvery, g.progressFn = 0, nil
		return
	}
	g.progressEvery, g.progressFn = every, fn
	g.nextProgress = every
}

func (g *Group) maybeProgress() {
	if g.progressFn == nil || g.base < g.nextProgress {
		return
	}
	g.progressFn(g.base)
	g.nextProgress = g.base - g.base%g.progressEvery + g.progressEvery
}

// SchedStats aggregates scheduler effort over the engines, with one
// PerShard row per worker slot aggregating the engines it owned at the
// end.
func (g *Group) SchedStats() SchedStats {
	st := SchedStats{
		Scheduler: SchedShardAdaptive.String(),
		Cycles:    g.cycles,
		Shards:    g.workers,
		Syncs:     g.syncs,
		Windows:   g.windows,
		Steals:    g.steals,
	}
	for _, e := range g.engines {
		st.CyclesExecuted += e.executed
		st.CyclesSkipped += e.skipped
		st.ProcSteps += e.procSteps
		st.KernelTicks += e.kernelTicks
		st.FifoCommits += e.fifoCommits
	}
	rows := make([]ShardEffort, g.workers)
	for w := range rows {
		rows[w] = ShardEffort{Shard: w, Syncs: g.syncs, Windows: g.wWins[w], Steals: g.wSteals[w]}
	}
	for i, e := range g.engines {
		r := &rows[g.owner[i]]
		r.Procs += len(e.procs)
		r.CyclesExecuted += e.executed
		r.CyclesSkipped += e.skipped
		r.ProcSteps += e.procSteps
		r.KernelTicks += e.kernelTicks
		r.FifoCommits += e.fifoCommits
	}
	st.PerShard = rows
	return st
}

func (g *Group) totals() (done, total int) {
	for _, e := range g.engines {
		done += e.finished
		total += len(e.procs)
	}
	return done, total
}

func (g *Group) maxProcsDoneAt() int64 {
	var at int64
	for _, e := range g.engines {
		if e.procsDoneAt > at {
			at = e.procsDoneAt
		}
	}
	return at
}

func (g *Group) minNow() int64 {
	at := Never
	for _, e := range g.engines {
		if e.now < at {
			at = e.now
		}
	}
	return at
}

func (g *Group) stopAll() {
	for _, e := range g.engines {
		e.stopProcs()
	}
}

// flushAll publishes every boundary's window output, in deterministic
// engine/registration order, with all engines stopped.
func (g *Group) flushAll() {
	for _, e := range g.engines {
		for _, b := range e.boundaries {
			b.flush()
		}
	}
}

// capAt returns the exclusive clock bound imposed by the coordinator:
// no engine may advance past it before the coordinator acted at it.
func (g *Group) capAt(base int64) int64 {
	if g.co == nil {
		return Never
	}
	c := g.co.NextAction(base)
	if c <= base {
		c = base + 1
	}
	return c
}

func (g *Group) quiescentCo() bool {
	return g.co == nil || g.co.Quiescent()
}

// deadlockAll merges per-engine blocked-proc reports into one group
// deadlock error. The reported cycle is the barrier the group quiesced
// at (round-quantized; a single-engine run pins the exact cycle).
func (g *Group) deadlockAll(cycle int64) error {
	var blocked []string
	for _, e := range g.engines {
		blocked = append(blocked, e.blockedProcs()...)
	}
	sort.Strings(blocked)
	return &DeadlockError{Cycle: cycle, Blocked: blocked}
}

// atBarrier hands the stopped group to the coordinator. With every
// engine at clock c+1 the coordinator reproduces its dense kernel tick
// at cycle c; the caller guarantees the clocks have converged on
// g.base. Engines are placed in phaseBarrier for the duration so
// coordinator-issued WakeKernel calls land this cycle — the cycle the
// stopped engines have not executed yet — exactly when a dense-mode
// kernel running before them would be observed.
func (g *Group) atBarrier() {
	if g.co == nil {
		return
	}
	for _, e := range g.engines {
		e.phase = phaseBarrier
	}
	g.co.AtBarrier(g.base)
	for _, e := range g.engines {
		e.phase = phaseIdle
	}
}

// satAdd is a+b saturating at Never.
func satAdd(a, b int64) int64 {
	if a >= Never-b {
		return Never
	}
	return a + b
}

// lbPasses bounds the null-message fixpoint: each pass lets one more hop
// of provable idleness propagate, lengthening horizons at O(edges) cost.
const lbPasses = 4

// adaptiveChunk bounds a round's span in units of the minimum boundary
// latency, keeping termination checks, coordinator caps, and steal
// rebalances flowing even when the bounds would allow huge windows.
const adaptiveChunk = 16

// lowerBounds computes, per engine, a conservative lower bound on the
// next cycle the engine could perform any work, folding in idleness of
// upstream producers (a bounded Gauss-Seidel iteration of the classic
// null-message recurrence lb[e] = max(now, min(next[e],
// min_in(lb[src]+lat)))). Starting from lb = now and applying the
// monotone recurrence keeps every intermediate value a valid lower
// bound, so any pass count is safe; more passes only lengthen horizons.
func (g *Group) lowerBounds() {
	for i, e := range g.engines {
		if g.engErr[i] != nil {
			// A failed engine executes nothing further; its unflushed
			// output (produced before the failure) was already published.
			g.lb[i] = Never
			continue
		}
		g.lb[i] = e.now
	}
	for pass := 0; pass < lbPasses; pass++ {
		for i, e := range g.engines {
			if g.engErr[i] != nil {
				continue
			}
			bound := g.next[i]
			for _, inb := range e.inBoundaries {
				if b := satAdd(g.lb[g.engIdx[inb.srcEngine()]], inb.Latency()); b < bound {
					bound = b
				}
			}
			if bound < e.now {
				bound = e.now
			}
			g.lb[i] = bound
		}
	}
}

// horizons derives each engine's exclusive window end for this round:
// the per-boundary safe bound min over incoming edges of lb[src]+lat,
// clamped to the coordinator cap, the cycle limit, and the round chunk.
// The minimum-clock engine always receives a horizon at least one
// boundary latency ahead, so every round makes progress.
func (g *Group) horizons(coCap, chunk int64) {
	for i, e := range g.engines {
		if g.engErr[i] != nil {
			g.horizon[i] = e.now
			continue
		}
		h := Never
		for _, inb := range e.inBoundaries {
			if b := satAdd(g.lb[g.engIdx[inb.srcEngine()]], inb.Latency()); b < h {
				h = b
			}
		}
		if h > coCap {
			h = coCap
		}
		if h > g.maxCycles {
			h = g.maxCycles
		}
		if h > chunk {
			h = chunk
		}
		if h < e.now {
			h = e.now
		}
		g.horizon[i] = h
	}
}

// Run executes all engines to completion with per-boundary adaptive
// lookahead. Completion, deadlock, and cycle-limit decisions are made
// between rounds: a run completes when every proc of every engine has
// finished, deadlocks when no engine has any scheduled event, no
// boundary traffic is pending, and the coordinator is quiescent, and
// fails with ErrMaxCycles when the group clock reaches the limit first.
func (g *Group) Run() error {
	for _, e := range g.engines {
		e.startAll()
		// Seed the event heaps before the first earliestEvent query.
		e.ensureEventInit()
	}
	var failErr error
	failMin := Never
	for {
		g.base = g.minNow()
		if failErr == nil {
			if done, total := g.totals(); total > 0 && done == total {
				g.cycles = g.maxProcsDoneAt()
				return nil
			}
			if g.base >= g.maxCycles {
				g.cycles = g.maxCycles
				g.stopAll()
				return maxCyclesErr(g.maxCycles)
			}
		} else {
			// Error drain: run surviving engines up to the earliest
			// failure cycle so a failure on a behind-clock engine can
			// still claim precedence, exactly like the dense serial order.
			drained := true
			for i, e := range g.engines {
				if g.engErr[i] == nil && e.now < failMin {
					drained = false
					break
				}
			}
			if drained {
				c, err := g.earliestFailure()
				g.cycles = c
				g.stopAll()
				return err
			}
		}
		anyEvent := false
		for i, e := range g.engines {
			if g.engErr[i] != nil {
				g.next[i] = Never
				continue
			}
			g.next[i] = e.earliestEvent()
			if g.next[i] != Never {
				anyEvent = true
			}
		}
		if !anyEvent && failErr == nil && g.quiescentCo() {
			g.cycles = g.base
			err := g.deadlockAll(g.base)
			g.stopAll()
			return err
		}
		coCap := g.capAt(g.base)
		if failErr != nil && coCap > failMin {
			coCap = failMin
		}
		chunk := satAdd(g.base, adaptiveChunk*g.window)
		g.lowerBounds()
		g.horizons(coCap, chunk)

		// Partition: engines with no event before their horizon jump it
		// in one hop (they provably execute nothing in the span); the
		// rest run real windows on the worker pool. The run set is fixed
		// before dispatch so workers only touch their owned engines.
		ran := false
		for i, e := range g.engines {
			run := false
			if g.engErr[i] == nil && g.horizon[i] > e.now {
				if g.next[i] >= g.horizon[i] {
					e.jumpTo(g.horizon[i])
				} else {
					run = true
					ran = true
				}
			}
			g.runSet[i] = run
		}
		if ran {
			var wg sync.WaitGroup
			for w := 0; w < g.workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i, e := range g.engines {
						if g.runSet[i] && g.owner[i] == w {
							g.engErr[i] = e.runWindow(g.horizon[i])
						}
					}
				}(w)
			}
			wg.Wait()
			for i := range g.engines {
				if g.runSet[i] {
					g.windows++
					g.wWins[g.owner[i]]++
				}
			}
		}
		g.syncs++
		if c, err := g.earliestFailure(); err != nil {
			if c < failMin {
				failMin = c
			}
			failErr = err
		}
		g.flushAll()
		g.base = g.minNow()
		if g.co != nil && g.base == coCap && g.liveConverged(coCap) {
			g.atBarrier()
		}
		g.rebalance()
		g.maybeProgress()
	}
}

// earliestFailure returns the smallest failure cycle among errored
// engines (ties by engine index, matching dense proc order).
func (g *Group) earliestFailure() (int64, error) {
	best := -1
	for i := range g.engines {
		if g.engErr[i] == nil {
			continue
		}
		if best < 0 || g.engines[i].now < g.engines[best].now {
			best = i
		}
	}
	if best < 0 {
		return Never, nil
	}
	return g.engines[best].now, g.engErr[best]
}

// liveConverged reports whether every non-failed engine's clock sits
// exactly at the given cycle — the barrier condition for coordinator
// actions, which mutate cross-engine state and therefore need an
// all-stopped common clock.
func (g *Group) liveConverged(at int64) bool {
	for i, e := range g.engines {
		if g.engErr[i] == nil && e.now != at {
			return false
		}
	}
	return true
}

// stealPeriod is the rebalance cadence in rounds.
const stealPeriod = 8

// rebalance runs the deterministic work-stealing rule: every
// stealPeriod rounds, if the busiest worker carries more than 4/3 the
// load of the idlest, engines are re-assigned greedily (longest
// processing time first) by decayed recent effort. The inputs are
// simulation-derived counters and the rule runs between rounds with all
// engines stopped, so placement is replay-stable and cycle-invisible.
func (g *Group) rebalance() {
	for i, e := range g.engines {
		cur := e.procSteps + e.kernelTicks
		g.recent[i] = g.recent[i]/2 + (cur - g.lastWork[i])
		g.lastWork[i] = cur
	}
	if g.workers <= 1 || g.syncs%stealPeriod != 0 {
		return
	}
	for w := range g.load {
		g.load[w] = 0
	}
	for i := range g.engines {
		g.load[g.owner[i]] += g.recent[i]
	}
	minL, maxL := g.load[0], g.load[0]
	for _, l := range g.load[1:] {
		if l < minL {
			minL = l
		}
		if l > maxL {
			maxL = l
		}
	}
	if maxL*3 <= minL*4 {
		return
	}
	for i := range g.order {
		g.order[i] = i
	}
	sort.SliceStable(g.order, func(a, b int) bool {
		ia, ib := g.order[a], g.order[b]
		if g.recent[ia] != g.recent[ib] {
			return g.recent[ia] > g.recent[ib]
		}
		return ia < ib
	})
	for w := range g.load {
		g.load[w] = 0
	}
	for _, i := range g.order {
		best := 0
		for w := 1; w < g.workers; w++ {
			if g.load[w] < g.load[best] {
				best = w
			}
		}
		g.load[best] += g.recent[i]
		if g.owner[i] != best {
			g.owner[i] = best
			g.steals++
			g.wSteals[best]++
		}
	}
}
