package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"time"

	smi "repro/internal/core"
	"repro/internal/fault"
	"repro/internal/routing"
	"repro/internal/service"
	"repro/internal/topology"
	"repro/internal/workload"
)

// svc-mix drives an in-process smid over loopback HTTP with a closed
// loop of svcClients clients: each submits its next job only after the
// previous one completed, so a slower service receives less load.
const (
	svcClients = 2
	svcWorkers = 2
	svcQueue   = 64
	// faultSeeds is how many distinct seeded fault schedules a block
	// draws; each needs a direct reference run in set-up.
	faultSeeds = 8
)

// jobTemplate is one distinct job spec of the mix with the result a
// direct workload.Run of the same spec gave in set-up.
type jobTemplate struct {
	spec   service.JobSpec
	body   []byte // the spec as the POST body
	cycles int64
	digest string
	stats  smi.Stats
	// per100 is the template's share of the mix in jobs per hundred; 0
	// for the seed-drawn templates (custom topologies, fault seeds),
	// which are kept out of the exact sums so those hold for every seed.
	per100 int
}

// The mix, per hundred jobs. 64 are small pingpongs, so the median
// latency lands inside the ~1-3 ms cluster where admission, JSON, the
// route cache and the cluster build dominate; 20 are 60-70 ms bcast and
// bandwidth jobs, so p90 lands inside the cluster where simulation
// dominates. Neither percentile sits on the border between two
// clusters, where it would jump between them run to run.
var fixedTemplates = []jobTemplate{
	{per100: 60, spec: service.JobSpec{Workload: "pingpong", Ranks: 8, Size: 64, Topology: &bus8}},
	{per100: 12, spec: service.JobSpec{Workload: "stencil", Ranks: 16}},
	{per100: 12, spec: service.JobSpec{Workload: "bcast", Ranks: 64, Size: 256, RoutingPolicy: "updown"}},
	{per100: 8, spec: service.JobSpec{Workload: "bandwidth", Ranks: 8, Size: 65536, Mode: "streaming", Topology: &bus8}},
}

const (
	plainPingpong = 0 // index of the pingpong template in fixedTemplates
	// The rest of each hundred is seed-drawn: pingpongs on custom
	// topologies, which miss the route cache, and stencils under a
	// seeded 1% packet-drop schedule, which run the reliable links.
	customPer100 = 4
	faultPer100  = 4
)

// customWirings lists the seed-drawn topologies in order of size: 112
// distinct routing keys. The size ranges keep each reference run under
// ~25 ms (a 72-device star's hub takes 0.5 s to simulate).
func customWirings() []topology.Spec {
	var out []topology.Spec
	add := func(kind string, lo, hi int) {
		for n := lo; n <= hi; n++ {
			out = append(out, topology.Spec{Kind: kind, Devices: n})
		}
	}
	add("ring", 9, 72)
	add("bus", 9, 40)
	add("star", 9, 24)
	return out
}

// mix is one seeded block of jobs; the clients cycle through it.
type mix struct {
	templates []jobTemplate
	order     []int // template index per job
}

// buildMix draws the block for a seed: hundreds jobs in chunks of a
// hundred, each chunk holding exactly the mix above in a seeded order,
// so any stretch of the block a timed run covers has the same
// composition. The custom topologies are taken at an even stride
// through customWirings from a seeded offset: every seed gets the same
// spread of sizes, and with 10 chunks the 40 distinct routing keys
// cycle through the service's 32-entry LRU route cache, so they always
// miss. Every template's expected result is computed by a direct
// workload.Run.
func buildMix(seed int64, hundreds int) (*mix, error) {
	rng := rand.New(rand.NewSource(seed))
	m := &mix{templates: append([]jobTemplate(nil), fixedTemplates...)}

	wirings := customWirings()
	customs := customPer100 * hundreds
	firstCustom := len(m.templates)
	offset := rng.Intn(len(wirings))
	for i := 0; i < customs; i++ {
		w := wirings[(offset+i*len(wirings)/customs)%len(wirings)]
		m.templates = append(m.templates, jobTemplate{spec: service.JobSpec{
			Workload: "pingpong", Ranks: w.Devices, Size: 64, Topology: &w,
		}})
	}
	firstFault := len(m.templates)
	for i := 0; i < faultSeeds; i++ {
		m.templates = append(m.templates, jobTemplate{spec: service.JobSpec{
			Workload: "stencil", Ranks: 16,
			Faults: &fault.Spec{Seed: 1 + rng.Int63n(1<<40), DropProb: 0.01},
		}})
	}

	for h := 0; h < hundreds; h++ {
		var chunk []int
		for t, tmpl := range fixedTemplates {
			for i := 0; i < tmpl.per100; i++ {
				chunk = append(chunk, t)
			}
		}
		for i := 0; i < customPer100; i++ {
			// Chunk h takes every hundreds-th custom, small to large.
			chunk = append(chunk, firstCustom+i*hundreds+h)
		}
		for i := 0; i < faultPer100; i++ {
			chunk = append(chunk, firstFault+(h*faultPer100+i)%faultSeeds)
		}
		rng.Shuffle(len(chunk), func(i, j int) { chunk[i], chunk[j] = chunk[j], chunk[i] })
		m.order = append(m.order, chunk...)
	}

	for i := range m.templates {
		t := &m.templates[i]
		var err error
		if t.body, err = json.Marshal(t.spec); err != nil {
			return nil, err
		}
		res, err := directRun(t.spec)
		if err != nil {
			return nil, fmt.Errorf("reference run of %s: %w", t.body, err)
		}
		t.cycles, t.digest, t.stats = res.Cycles, res.OutputDigest, res.Stats
	}
	return m, nil
}

// directRun executes a job spec through the library the way the
// service's worker does, without the service.
func directRun(spec service.JobSpec) (workload.Result, error) {
	p := workload.Params{
		Ranks: spec.Ranks, Size: spec.Size, Steps: spec.Steps,
		Mode: spec.Mode, Faults: spec.Faults,
	}
	if spec.RoutingPolicy == "updown" {
		p.RoutingPolicy = routing.UpDown
	}
	var err error
	if spec.Topology != nil {
		p.Topology, err = spec.Topology.Build()
	} else {
		p.Topology, err = workload.DefaultTopology(spec.Ranks)
	}
	if err != nil {
		return workload.Result{}, err
	}
	return workload.Run(spec.Workload, p)
}

// jobSample is one completed job as its client saw it.
type jobSample struct {
	tmpl      int
	latencyMs float64 // POST to final status
	submitMs  float64 // POST round trip
	waitMs    float64 // service: submitted -> started
	runMs     float64 // service: started -> finished
	cycles    int64
}

// svcRun is a started service with its mix.
type svcRun struct {
	mix    *mix
	svc    *service.Service
	server *httptest.Server
	client *http.Client

	mu       sync.Mutex
	next     int // next position in the cycled block
	rejected int
}

// startService is what setup_s times on svc-mix: drawing the mix with
// its reference runs, and starting the service and its HTTP listener.
func startService(seed int64, hundreds int) (*svcRun, error) {
	m, err := buildMix(seed, hundreds)
	if err != nil {
		return nil, err
	}
	svc := service.New(service.Config{Workers: svcWorkers, QueueDepth: svcQueue})
	server := httptest.NewServer(svc.Handler())
	return &svcRun{mix: m, svc: svc, server: server, client: server.Client()}, nil
}

// stop closes the listener and drains the service's workers.
func (s *svcRun) stop() error {
	s.server.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	return s.svc.Shutdown(ctx)
}

// get fetches a URL and returns the whole body; the connection is then
// reusable.
func (s *svcRun) get(path string) ([]byte, error) {
	resp, err := s.client.Get(s.server.URL + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d: %s", path, resp.StatusCode, body)
	}
	return body, nil
}

// doJob is one client interaction: POST the spec, follow the event
// stream until the service closes it at the terminal state, fetch the
// final status, and check the result against the reference run.
func (s *svcRun) doJob(tmpl int, rec *recorder) (jobSample, error) {
	t := &s.mix.templates[tmpl]
	sample := jobSample{tmpl: tmpl}
	t0 := time.Now()
	resp, err := s.client.Post(s.server.URL+"/v1/jobs", "application/json", bytes.NewReader(t.body))
	if err != nil {
		return sample, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return sample, err
	}
	if resp.StatusCode != http.StatusAccepted {
		s.mu.Lock()
		s.rejected++
		s.mu.Unlock()
		return sample, fmt.Errorf("POST /v1/jobs: status %d: %s", resp.StatusCode, body)
	}
	var st service.JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		return sample, err
	}
	t1 := time.Now()
	if _, err := s.get("/v1/jobs/" + st.ID + "/events"); err != nil {
		return sample, err
	}
	t2 := time.Now()
	if body, err = s.get("/v1/jobs/" + st.ID); err != nil {
		return sample, err
	}
	if err := json.Unmarshal(body, &st); err != nil {
		return sample, err
	}
	t3 := time.Now()

	switch {
	case st.State != service.StateDone || st.Result == nil:
		return sample, fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
	case st.Started == nil || st.Finished == nil:
		return sample, fmt.Errorf("job %s is done without start/finish times", st.ID)
	case st.Result.Cycles != t.cycles || st.Result.OutputDigest != t.digest:
		return sample, fmt.Errorf("job %s (%s): %d cycles digest %s, direct run gave %d / %s",
			st.ID, t.body, st.Result.Cycles, st.Result.OutputDigest, t.cycles, t.digest)
	}
	sample.latencyMs = ms(t3.Sub(t0))
	sample.submitMs = ms(t1.Sub(t0))
	sample.waitMs = ms(st.Started.Sub(st.Submitted))
	sample.runMs = ms(st.Finished.Sub(*st.Started))
	sample.cycles = st.Result.Cycles
	if rec != nil {
		root := rec.add(-1, st.ID, "client.job", t0, t3)
		rec.add(root, st.ID, "http.submit", t0, t1)
		rec.add(root, st.ID, "service.queue_wait", st.Submitted, *st.Started)
		rec.add(root, st.ID, "service.run", *st.Started, *st.Finished)
		rec.add(root, st.ID, "http.fetch_result", t2, t3)
	}
	return sample, nil
}

// drive runs the closed loop for the budget and returns the phase's
// accounting and the verified jobs.
func (s *svcRun) drive(budget time.Duration, maxOps int, rec *recorder) (opStats, []jobSample) {
	var (
		st      opStats
		samples []jobSample
		wg      sync.WaitGroup
	)
	st.begin()
	for c := 0; c < svcClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				s.mu.Lock()
				if !st.more(budget, maxOps) {
					s.mu.Unlock()
					return
				}
				tmpl := s.mix.order[s.next%len(s.mix.order)]
				s.next++
				s.mu.Unlock()

				start := time.Now()
				sample, err := s.doJob(tmpl, rec)
				s.mu.Lock()
				st.op(ms(time.Since(start)))
				if err != nil {
					st.fail("svc-mix: %v", err)
				} else {
					samples = append(samples, sample)
				}
				s.mu.Unlock()
			}
		}()
	}
	wg.Wait()
	st.end()
	return st, samples
}

// runService measures the svc-mix workload.
func runService(def workloadDef, o options, rec *recorder) (_ *result, err error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(def.GoMaxProcs))
	r := newResult(def, o)

	var (
		s      *svcRun
		setups []float64
	)
	for i := 0; i < o.setupReps; i++ {
		if s != nil {
			if err := s.stop(); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		if s, err = startService(o.seed, o.mixHundreds); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", def.Name, err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer func() {
		if stopErr := s.stop(); err == nil {
			err = stopErr
		}
	}()

	if o.ramp > 0 {
		// The loop itself, discarded, is the warm-up: it fills the route
		// cache and the connection pool and keeps both cores busy.
		start := time.Now()
		ramp, _ := s.drive(o.ramp, o.maxOps, nil)
		r.RampS = time.Since(start).Seconds()
		r.count(ramp)
	}

	un, unJobs := s.drive(o.untraced, o.maxOps, nil)
	r.count(un)
	r.Reps = len(un.ms)
	if len(unJobs) == 0 {
		return r, nil // nothing verified: no numbers to report
	}
	m := r.Metrics
	if o.reportE2E {
		var simulated, fixed float64
		for _, j := range unJobs {
			simulated += float64(j.cycles)
		}
		for _, t := range s.mix.templates {
			fixed += float64(t.per100) * float64(t.cycles)
		}
		if err := un.endToEnd(m, setups, fixed, float64(un.wall.Nanoseconds())/simulated); err != nil {
			return nil, fmt.Errorf("%s: %w", def.Name, err)
		}
	}
	if o.traced == 0 {
		return r, nil
	}

	directMs, err := timeDirect(s.mix.templates[plainPingpong].spec)
	if err != nil {
		return nil, err
	}
	tr, trJobs := s.drive(o.traced, o.maxOps, rec)
	r.count(tr)
	un.perLayer(m)
	statsMetrics(m, s.mix.fixedStats(), 0)
	if len(trJobs) > 0 {
		m.set("bench.trace_overhead_ratio", median(tr.ms)/median(un.ms))
		if err := s.serviceShares(m, trJobs, tr.wall, directMs); err != nil {
			return nil, err
		}
	}
	return r, runProbes(o.probeScale, m)
}

// timeDirect returns the median host time of direct library runs of a
// spec at the service's Go scheduler width.
func timeDirect(spec service.JobSpec) (float64, error) {
	var times []float64
	for i := 0; i < 5; i++ {
		start := time.Now()
		if _, err := directRun(spec); err != nil {
			return 0, err
		}
		times = append(times, ms(time.Since(start)))
	}
	return median(times), nil
}

// fixedStats sums the reference runs' Stats over a hundred jobs of the
// seed-independent templates, so svc-mix's exact counts hold for every
// seed. The pingpong template reports an empty Stats and adds nothing.
func (m *mix) fixedStats() smi.Stats {
	var sum smi.Stats
	for _, t := range m.templates {
		n := int64(t.per100)
		if n == 0 || t.stats.Sched.Scheduler == "" {
			continue
		}
		sc := t.stats.Sched
		sum.Sched.Scheduler = sc.Scheduler
		sum.Sched.KernelTicks += n * sc.KernelTicks
		sum.Sched.ProcSteps += n * sc.ProcSteps
		sum.Sched.FifoCommits += n * sc.FifoCommits
		sum.Sched.CyclesExecuted += n * sc.CyclesExecuted
		sum.Sched.CyclesSkipped += n * sc.CyclesSkipped
		sum.PacketsDelivered += uint64(n) * t.stats.PacketsDelivered
		sum.LinkStalls += uint64(n) * t.stats.LinkStalls
		sum.Retransmits += uint64(n) * t.stats.Retransmits
		sum.StreamFragments += uint64(n) * t.stats.StreamFragments
	}
	return sum
}

// serviceShares attributes a job's latency to the service's stages, as
// shares of the median latency, from the timestamps the service records
// and the clients' own timers.
func (s *svcRun) serviceShares(m metricSet, jobs []jobSample, wall time.Duration, directMs float64) error {
	var lat, submit, wait, run, outside, overhead, pingpongRun []float64
	var busyMs float64
	for _, j := range jobs {
		lat = append(lat, j.latencyMs)
		submit = append(submit, j.submitMs)
		wait = append(wait, j.waitMs)
		run = append(run, j.runMs)
		outside = append(outside, j.latencyMs-j.waitMs-j.runMs)
		overhead = append(overhead, j.latencyMs-j.runMs)
		busyMs += j.runMs
		if j.tmpl == plainPingpong {
			pingpongRun = append(pingpongRun, j.runMs)
		}
	}
	p50 := median(lat)
	m.set("service.submit_share", median(submit)/p50)
	m.set("service.queue_wait_share", median(wait)/p50)
	m.set("service.run_share", median(run)/p50)
	m.set("service.http_share", median(outside)/p50)
	m.set("service.overhead_share", median(overhead)/p50)
	m.set("service.p99_over_p50", percentile(lat, 0.99)/p50)
	m.set("service.worker_busy_share", busyMs/(svcWorkers*ms(wall)))
	if len(pingpongRun) > 0 {
		m.set("service.lib_ratio", median(pingpongRun)/directMs)
	}
	s.mu.Lock()
	m.set("service.rejected", float64(s.rejected))
	s.mu.Unlock()

	body, err := s.get("/v1/stats")
	if err != nil {
		return err
	}
	var stats service.Stats
	if err := json.Unmarshal(body, &stats); err != nil {
		return err
	}
	if c := stats.RouteCache; c.Hits+c.Misses > 0 {
		m.set("service.route_cache_hit_rate", float64(c.Hits)/float64(c.Hits+c.Misses))
	}
	return nil
}
