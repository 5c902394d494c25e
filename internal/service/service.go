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

// Service is a running smid instance.
type Service struct {
	cfg   Config
	cache *RouteCache

	mu     sync.Mutex
	jobs   map[string]*Job
	order  []string // submission order, for listings
	nextID int
	closed bool

	queue chan *Job
	wg    sync.WaitGroup
}

// New starts a service with cfg.Workers simulation workers.
func New(cfg Config) *Service {
	cfg = cfg.withDefaults()
	s := &Service{
		cfg:   cfg,
		cache: NewRouteCache(cfg.CacheCapacity),
		jobs:  make(map[string]*Job),
		queue: make(chan *Job, cfg.QueueDepth),
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
	return s.enqueue(spec, "")
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
	return s.enqueue(orig.Spec(), id)
}

// enqueue registers and queues a job under admission control.
func (s *Service) enqueue(spec JobSpec, replayOf string) (*Job, error) {
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
	defer func() {
		if r := recover(); r != nil {
			job.fail(fmt.Errorf("job panicked: %v", r))
		}
	}()
	job.start()

	spec := job.Spec()
	r, err := spec.resolve()
	if err != nil {
		job.fail(err)
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
		Transport:     spec.Transport,
		Arbiter:       spec.Arbiter,
	}
	if r.workload.SupportsRoutes && r.topo != nil {
		routes, hit, err := s.cache.Get(r.topo, r.policy)
		if err != nil {
			job.fail(err)
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
	if err != nil {
		job.fail(err)
		return
	}
	job.done(&res, s.replayVerdict(job.replayOf, &res))
}

// replayVerdict compares a replay's result against its original job's:
// nil when the job is no replay (or its original is gone), else whether
// the two are bit-identical.
func (s *Service) replayVerdict(replayOf string, res *workload.Result) *bool {
	if replayOf == "" {
		return nil
	}
	s.mu.Lock()
	orig := s.jobs[replayOf]
	s.mu.Unlock()
	if orig == nil {
		return nil
	}
	origRes := orig.Result()
	match := origRes != nil && reflect.DeepEqual(*origRes, *res)
	return &match
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

// Jobs lists all jobs in submission order.
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
	// Sched aggregates scheduler effort over every completed job; the
	// per-job breakdown (including Sched.PerShard rows) lives in each
	// job's status document under result.stats.sched.
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

// Stats snapshots the service counters.
func (s *Service) Stats() Stats {
	s.mu.Lock()
	st := Stats{
		Jobs:          make(map[State]int),
		QueueDepth:    len(s.queue),
		QueueCapacity: s.cfg.QueueDepth,
		Workers:       s.cfg.Workers,
		Draining:      s.closed,
	}
	jobs := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	for _, j := range jobs {
		st.Jobs[j.State()]++
		if res := j.Result(); res != nil {
			sc := res.Stats.Sched
			if sc.Shards > 1 {
				st.Sched.ShardedJobs++
			}
			st.Sched.Syncs += sc.Syncs
			st.Sched.Windows += sc.Windows
			st.Sched.Steals += sc.Steals
		}
	}
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
