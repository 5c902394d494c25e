package sim

import (
	"fmt"
	"reflect"
	"testing"
)

// A synthetic system for event-vs-dense parity: relay kernels that hold
// values for a while, forward them along a DAG of bounded FIFOs, park
// whenever they can and poke each other with direct wakes; procs that
// inject values, sleep, and collect them with plain and deadline waits.
// Every choice is a function of the seed and of simulated state only, so
// the two schedulers must agree on every observation.

const (
	synthKernels = 134 // three 64-bit words of kernels
	synthProcs   = 72  // two words of procs
	synthValues  = 6   // injected per proc
	synthSkip    = 67  // long forwarding edge: always into another word
)

type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func mix(a, b uint64) uint64 { return (&rng{s: a*0x9e3779b97f4a7c15 ^ b}).next() }

type synthVal struct {
	owner, ttl uint8
	id         uint32
}

type synth struct {
	e      *Engine
	seed   uint64
	relays []*relay
	ids    []KernelID
	sinks  []*Fifo[synthVal]
	plog   [][]string
}

type relay struct {
	sys       *synth
	i         int
	in        *Fifo[synthVal]
	holding   bool
	v         synthVal
	releaseAt int64
	mail      int
	log       []string
}

func (k *relay) Name() string { return fmt.Sprintf("relay%d", k.i) }

// poke leaves mail for relay t and wakes it, the way a kernel mutating a
// peer's state directly must.
func (s *synth) poke(t int) {
	s.relays[t].mail++
	s.e.WakeKernel(s.ids[t])
}

// wakeWriters wakes the relays that forward into relay t's input, which
// may be parked on it being full: the input has two writer kernels, more
// than Fifo.WakeOnSpace's one slot holds, so the reader wakes them.
func (s *synth) wakeWriters(t int) {
	for _, from := range []int{t - 1, t - synthSkip} {
		if from >= 0 {
			s.e.WakeKernel(s.ids[from])
		}
	}
}

func (k *relay) Tick(now int64) bool {
	did := false
	if k.mail > 0 {
		k.log = append(k.log, fmt.Sprintf("mail%d@%d", k.mail, now))
		k.mail = 0
		did = true
	}
	if !k.holding {
		if v, ok := k.in.TryPop(); ok {
			k.sys.wakeWriters(k.i)
			h := mix(k.sys.seed^uint64(v.id), uint64(k.i))
			k.holding, k.v = true, v
			k.releaseAt = now + []int64{0, 1, 1, 2, 3, 5, 64, 130}[h%8]
			k.log = append(k.log, fmt.Sprintf("v%x@%d", v.id, now))
			if h>>8%4 == 0 {
				k.sys.poke(int(h >> 16 % synthKernels))
			}
			did = true
		}
	}
	if k.holding && now >= k.releaseAt && k.forward() {
		k.holding = false
		did = true
	}
	return did
}

// forward hands the held value to a later relay while it has hops left,
// then to its owner's sink (which never fills).
func (k *relay) forward() bool {
	v := k.v
	next := k.i + 1
	if v.id&1 == 1 {
		next = k.i + synthSkip
	}
	if v.ttl == 0 || next >= synthKernels {
		return k.sys.sinks[v.owner].TryPush(v)
	}
	v.ttl--
	return k.sys.relays[next].in.TryPush(v)
}

// IdleUntil is queried after every tick, so pending work must keep the
// relay hot: mail (a relay may poke itself, and the tick supersedes its
// own wake), or input to read. Otherwise it waits for its release cycle,
// or to be woken: by a commit on its input or mail when empty-handed, by
// the downstream relay's pop (see wakeWriters) when blocked on a full
// output.
func (k *relay) IdleUntil(now int64) int64 {
	switch {
	case k.mail > 0 || !k.holding && k.in.CanPop():
		return now
	case k.holding && k.releaseAt > now:
		return k.releaseAt
	}
	return Never
}

// newSynth builds the system; with slab, its relay inputs and its sinks
// come from one NewFifos call each instead of one NewFifo per FIFO.
func newSynth(seed uint64, sched SchedulerKind, slab bool) *synth {
	e := NewEngine()
	e.SetScheduler(sched)
	e.SetMaxCycles(1_000_000)
	s := &synth{e: e, seed: seed, plog: make([][]string, synthProcs)}
	var ins, sinks []Fifo[synthVal]
	if slab {
		ins = NewFifos[synthVal](e, synthKernels, func(i int) int { return 1 + i%3 }, func(i int) string { return fmt.Sprintf("in%d", i) })
		sinks = NewFifos[synthVal](e, synthProcs, func(int) int { return synthValues }, func(i int) string { return fmt.Sprintf("sink%d", i) })
	}
	for i := 0; i < synthKernels; i++ {
		k := &relay{sys: s, i: i}
		if slab {
			k.in = &ins[i]
		} else {
			k.in = NewFifo[synthVal](e, fmt.Sprintf("in%d", i), 1+i%3)
		}
		s.relays = append(s.relays, k)
		s.ids = append(s.ids, e.AddKernel(k))
	}
	for i, k := range s.relays {
		k.in.WakesKernel(s.ids[i])
	}
	for pi := 0; pi < synthProcs; pi++ {
		pi := pi
		var sink *Fifo[synthVal]
		if slab {
			sink = &sinks[pi]
		} else {
			sink = NewFifo[synthVal](e, fmt.Sprintf("sink%d", pi), synthValues)
		}
		s.sinks = append(s.sinks, sink)
		NewProc(e, fmt.Sprintf("p%d", pi), func(p *Proc) {
			r := &rng{s: mix(seed, uint64(pi))}
			note := func(format string, args ...any) {
				s.plog[pi] = append(s.plog[pi], fmt.Sprintf(format, args...))
			}
			for n := 0; n < synthValues; n++ {
				switch x := r.next(); x % 6 {
				case 0:
					p.Tick()
				case 1:
					p.Sleep(2 + int64(x>>8%3))
				case 2:
					p.Sleep(60 + int64(x>>8%80))
				case 3:
					s.poke(int(x >> 8 % synthKernels))
				}
				x := r.next()
				v := synthVal{owner: uint8(pi), ttl: uint8(x % 6), id: uint32(pi<<8 | n)}
				s.relays[x>>8%synthKernels].in.PushProc(p, v)
				note("sent%x@%d", v.id, p.Now())
			}
			// Collect all but one value, so something is still in
			// flight or buffered when the run ends.
			for n := 0; n < synthValues-1; n++ {
				if n%2 == 0 {
					note("got%x@%d", sink.PopProc(p).id, p.Now())
					continue
				}
				for {
					v, res := sink.PopProcE(p, p.Now()+1+int64(r.next()%50))
					if res == WaitOK {
						note("got%x@%d", v.id, p.Now())
						break
					}
					note("%v@%d", res, p.Now())
				}
			}
		})
	}
	return s
}

// observations is everything the two schedulers must agree on.
type observations struct {
	Cycles                 int64
	ProcSteps, FifoCommits int64
	KernelLogs, ProcLogs   [][]string
	Held                   []string // per relay: the value still held
	Buffered               []string // per FIFO: committed contents, oldest first
}

func (s *synth) run(t *testing.T) (observations, SchedStats) {
	t.Helper()
	if err := s.e.Run(); err != nil {
		t.Fatalf("%v seed %d: %v", s.e.Scheduler(), s.seed, err)
	}
	st := s.e.SchedStats()
	o := observations{Cycles: st.Cycles, ProcSteps: st.ProcSteps, FifoCommits: st.FifoCommits, ProcLogs: s.plog}
	contents := func(f *Fifo[synthVal]) string {
		out := f.Name() + ":"
		for v, ok := f.TryPop(); ok; v, ok = f.TryPop() {
			out += fmt.Sprintf(" %x/%d", v.id, v.ttl)
		}
		return out
	}
	for _, k := range s.relays {
		o.KernelLogs = append(o.KernelLogs, k.log)
		o.Held = append(o.Held, fmt.Sprintf("%v %x until %d, mail %d", k.holding, k.v.id, k.releaseAt, k.mail))
		o.Buffered = append(o.Buffered, contents(k.in))
	}
	for _, f := range s.sinks {
		o.Buffered = append(o.Buffered, contents(f))
	}
	return o, st
}

func TestEventDenseParityRandomized(t *testing.T) {
	for seed := uint64(1); seed <= 12; seed++ {
		dense, dst := newSynth(seed, SchedDense, false).run(t)
		event, est := newSynth(seed, SchedEvent, false).run(t)
		if !reflect.DeepEqual(dense, event) {
			t.Errorf("seed %d: event run diverges from the dense scan (cycles %d vs %d)", seed, event.Cycles, dense.Cycles)
			for i := range dense.KernelLogs {
				if !reflect.DeepEqual(dense.KernelLogs[i], event.KernelLogs[i]) {
					t.Errorf("  relay %d: dense %v\n             event %v", i, dense.KernelLogs[i], event.KernelLogs[i])
					break
				}
			}
			for i := range dense.ProcLogs {
				if !reflect.DeepEqual(dense.ProcLogs[i], event.ProcLogs[i]) {
					t.Errorf("  proc %d: dense %v\n           event %v", i, dense.ProcLogs[i], event.ProcLogs[i])
					break
				}
			}
			continue
		}
		// The run must actually exercise parking and idle skipping.
		if est.KernelTicks*4 > dst.KernelTicks || est.CyclesSkipped == 0 {
			t.Errorf("seed %d: event run ticked %d kernels (dense %d) and skipped %d cycles — nothing parked",
				seed, est.KernelTicks, dst.KernelTicks, est.CyclesSkipped)
		}
	}
}
