// Package service implements smid, the long-running multi-tenant
// simulation service: a bounded pool of simulation workers fed by an
// admission-controlled queue, a warm cache of topology-keyed routing
// tables shared across jobs, streamed per-job progress events, and
// deterministic replay of any completed job from its stored spec.
//
// The design exploits the split the paper builds its whole workflow
// around (Fig 8): the communication topology and its routing tables are
// compiled artifacts independent of the per-run program, so a server
// can keep them warm and stream many programs through them. The
// simulator is deterministic end to end, which turns replay into a
// service-level guarantee: re-running a stored JobSpec reproduces
// cycle counts, outputs, and stats bit for bit — and the service checks
// that on every replay.
package service

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"sync"

	"repro/internal/workload"
)

// Config sizes the service.
type Config struct {
	// Workers is the number of concurrent simulation workers (default
	// GOMAXPROCS, capped at 8).
	Workers int
	// QueueDepth bounds the admission queue; submissions beyond it are
	// rejected with an Overloaded error (default 64).
	QueueDepth int
	// CacheCapacity bounds the routing-table cache entries (default 32).
	CacheCapacity int
	// ProgressEvery is the simulated-cycle interval between streamed
	// progress events (default 250_000; negative disables).
	ProgressEvery int64
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
		if c.Workers > 8 {
			c.Workers = 8
		}
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.CacheCapacity <= 0 {
		c.CacheCapacity = 32
	}
	if c.ProgressEvery == 0 {
		c.ProgressEvery = 250_000
	}
	return c
}

// keepFinished is how many finished jobs (done, failed or canceled) the
// service retains for GET and replay. When one more finishes, the job
// that finished earliest is forgotten: its id answers NotFound. Queued
// and running jobs are never forgotten, so the service holds at most
// QueueDepth + Workers + keepFinished jobs whatever the offered load.
const keepFinished = 256

// Service is a running smid instance.
type Service struct {
	cfg   Config
	cache *RouteCache

	mu sync.Mutex
	// jobs holds every queued and running job and the keepFinished most
	// recently finished ones; order lists their ids in submission order,
	// finished the finished ones' in the order they finished.
	jobs     map[string]*Job
	order    []string
	finished []string
	// counts and sched are running totals over every job ever admitted:
	// how many are in each state, and the effort of the completed ones.
	counts map[State]int
	sched  SchedTotals
	nextID int
	closed bool

	queue chan *Job
	wg    sync.WaitGroup
}

// New starts a service with cfg.Workers simulation workers.
func New(cfg Config) *Service {
	cfg = cfg.withDefaults()
	s := &Service{
		cfg:    cfg,
		cache:  NewRouteCache(cfg.CacheCapacity),
		jobs:   make(map[string]*Job),
		counts: make(map[State]int),
		queue:  make(chan *Job, cfg.QueueDepth),
	}
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			for job := range s.queue {
				s.runJob(job)
			}
		}()
	}
	return s
}

// Submit validates the spec and enqueues a job. It returns a typed
// error — InvalidSpec, Overloaded, or ShuttingDown — without side
// effects when admission fails, so overload never leaks job state.
func (s *Service) Submit(spec JobSpec) (*Job, error) {
	if _, err := spec.resolve(); err != nil {
		return nil, err
	}
	return s.enqueue(spec, nil)
}

// Replay re-executes a completed job from its stored spec as a new job.
// Determinism makes the new run bit-identical to the original; the
// service verifies that when the replay finishes and records the
// verdict in the replay job's status.
func (s *Service) Replay(id string) (*Job, error) {
	s.mu.Lock()
	orig, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return nil, errf(NotFound, "no job %q", id)
	}
	if orig.State() != StateDone {
		return nil, errf(Conflict, "job %s is %s; only completed jobs can be replayed", id, orig.State())
	}
	return s.enqueue(orig.Spec(), orig)
}

// enqueue registers and queues a job under admission control; replayOf
// is the job it replays, or nil.
func (s *Service) enqueue(spec JobSpec, replayOf *Job) (*Job, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, errf(ShuttingDown, "server is draining; not accepting jobs")
	}
	s.nextID++
	job := newJob(fmt.Sprintf("j%04d", s.nextID), spec, replayOf)
	// Reserve the queue slot while holding the lock: the job becomes
	// visible only if admission succeeds, and a concurrent Shutdown
	// cannot close the queue between the check above and the send.
	select {
	case s.queue <- job:
		s.jobs[job.id] = job
		s.order = append(s.order, job.id)
		s.counts[StateQueued]++
		s.mu.Unlock()
		return job, nil
	default:
		s.nextID--
		s.mu.Unlock()
		return nil, errf(Overloaded, "admission queue full (%d jobs queued); retry later", s.cfg.QueueDepth)
	}
}

// runJob executes one job on a worker. A panicking run (a protocol
// violation inside a rank program, say) fails the job, never the
// server.
func (s *Service) runJob(job *Job) {
	if job.State() == StateCanceled {
		return
	}
	s.mu.Lock()
	s.counts[StateQueued]--
	s.counts[StateRunning]++
	s.mu.Unlock()
	job.start()
	defer func() {
		if r := recover(); r != nil {
			s.finish(job, nil, fmt.Errorf("job panicked: %v", r))
		}
	}()

	spec := job.Spec()
	r, err := spec.resolve()
	if err != nil {
		s.finish(job, nil, err)
		return
	}

	params := workload.Params{
		Ranks: spec.Ranks, Size: spec.Size, Steps: spec.Steps,
		Verify:        spec.Verify,
		Topology:      r.topo,
		RoutingPolicy: r.policy,
		Scheduler:     r.sched,
		Shards:        r.shards,
		Faults:        r.faults,
		MaxCycles:     spec.MaxCycles,
		Mode:          spec.Mode,
		BufferElems:   spec.BufferElems,
		StreamBatch:   spec.StreamBatch,
		Arbiter:       spec.Arbiter,
	}
	if r.workload.SupportsRoutes && r.topo != nil {
		routes, hit, err := s.cache.Get(r.topo, r.policy)
		if err != nil {
			s.finish(job, nil, err)
			return
		}
		params.Routes = routes
		job.mu.Lock()
		job.cacheHit = hit
		job.mu.Unlock()
	}
	if s.cfg.ProgressEvery > 0 {
		params.Progress = func(cycle int64) { job.event("progress", cycle, "") }
		params.ProgressEvery = s.cfg.ProgressEvery
	}

	res, err := workload.Run(spec.Workload, params)
	s.finish(job, &res, err)
}

// finish ends a running job with its result, or with err if that is not
// nil. The service books the job first, so a client that sees the job
// finished also sees it in the counters.
func (s *Service) finish(job *Job, res *workload.Result, err error) {
	if err != nil {
		s.retire(job.id, StateRunning, StateFailed, nil)
		job.fail(err)
		return
	}
	s.retire(job.id, StateRunning, StateDone, res)
	job.done(res, replayVerdict(job.origResult, res))
}

// replayVerdict compares a replay's result against its original job's
// (origRes, nil when the job is no replay): nil for no replay, else
// whether the two are bit-identical.
func replayVerdict(origRes, res *workload.Result) *bool {
	if origRes == nil {
		return nil
	}
	match := reflect.DeepEqual(*origRes, *res)
	return &match
}

// retire books the job id's move from state from to the final state to:
// it moves the job's count, adds a completed job's scheduler effort
// (res) to the totals, and forgets the earliest-finished job once more
// than keepFinished are retained.
func (s *Service) retire(id string, from, to State, res *workload.Result) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.counts[from]--
	s.counts[to]++
	if res != nil {
		sc := res.Stats.Sched
		if sc.Shards > 1 {
			s.sched.ShardedJobs++
		}
		s.sched.Syncs += sc.Syncs
		s.sched.Windows += sc.Windows
		s.sched.Steals += sc.Steals
	}
	s.finished = append(s.finished, id)
	if len(s.finished) <= keepFinished {
		return
	}
	old := s.finished[0]
	s.finished = slices.Delete(s.finished, 0, 1)
	delete(s.jobs, old)
	i := slices.Index(s.order, old)
	s.order = slices.Delete(s.order, i, i+1)
}

// Job returns a job by ID.
func (s *Service) Job(id string) (*Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, errf(NotFound, "no job %q", id)
	}
	return j, nil
}

// Jobs lists the retained jobs (see keepFinished) in submission order.
func (s *Service) Jobs() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Job, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id])
	}
	return out
}

// Stats is the service-level counter document served by GET /v1/stats.
type Stats struct {
	Jobs          map[State]int `json:"jobs"`
	QueueDepth    int           `json:"queue_depth"`
	QueueCapacity int           `json:"queue_capacity"`
	Workers       int           `json:"workers"`
	RouteCache    CacheStats    `json:"route_cache"`
	Draining      bool          `json:"draining"`
	// Sched aggregates scheduler effort over every completed job,
	// forgotten ones included; the per-job breakdown (including
	// Sched.PerShard rows) lives in each job's status document under
	// result.stats.sched.
	Sched SchedTotals `json:"sched"`
}

// SchedTotals sums the sharded-scheduler effort counters across
// completed jobs: how many ran sharded, and the barrier/window/steal
// work their groups performed.
type SchedTotals struct {
	ShardedJobs int   `json:"sharded_jobs"`
	Syncs       int64 `json:"syncs"`
	Windows     int64 `json:"windows"`
	Steals      int64 `json:"steals"`
}

// Stats snapshots the service counters. Job counts cover every job
// ever admitted, by its current state, forgotten ones included.
func (s *Service) Stats() Stats {
	s.mu.Lock()
	st := Stats{
		Jobs:          make(map[State]int),
		QueueDepth:    len(s.queue),
		QueueCapacity: s.cfg.QueueDepth,
		Workers:       s.cfg.Workers,
		Draining:      s.closed,
		Sched:         s.sched,
	}
	for state, n := range s.counts {
		if n > 0 {
			st.Jobs[state] = n
		}
	}
	s.mu.Unlock()
	st.RouteCache = s.cache.Stats()
	return st
}

// Shutdown drains the service: no new submissions are accepted, queued
// jobs are canceled with a typed error, and running jobs are allowed to
// finish. It returns when every worker has exited or ctx expires.
func (s *Service) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()

	// Drain the queue: anything still waiting is canceled. Workers may
	// race us for entries; whoever gets an entry owns it (a worker skips
	// canceled jobs).
	for {
		select {
		case job := <-s.queue:
			s.retire(job.id, StateQueued, StateCanceled, nil)
			job.cancel("server shutting down before the job started")
			continue
		default:
		}
		break
	}
	// No submitter can be mid-send: enqueue checks closed and sends
	// under the same lock acquisition we flipped it in.
	close(s.queue)

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("service: shutdown interrupted with jobs still running: %w", ctx.Err())
	}
}
