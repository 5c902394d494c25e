package sim

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// Engine-run loops (Proc.Run) and the proc timing wheel. A script is a
// list of sleeps and cancellable FIFO operations that runs either as
// body code or as an engine-run step; both forms, under both schedulers,
// must observe the same cycles, values and wait outcomes.

type scriptKind uint8

const (
	opSleep scriptKind = iota
	opPop
	opPush
)

type scriptOp struct {
	kind scriptKind
	n    int64 // sleep cycles, or a wait's patience (0: no deadline)
	f    *Fifo[int]
}

func scriptDeadline(now, patience int64) int64 {
	if patience <= 0 {
		return Never
	}
	return now + patience
}

// bodyScript runs ops as body code, logging each op's start cycle and
// each FIFO operation's outcome.
func bodyScript(p *Proc, ops []scriptOp, log *[]string) {
	for i, op := range ops {
		*log = append(*log, fmt.Sprintf("op%d@%d", i, p.Now()))
		dl := scriptDeadline(p.Now(), op.n)
		switch op.kind {
		case opSleep:
			p.Sleep(op.n)
		case opPop:
			v, res := op.f.PopProcE(p, dl)
			*log = append(*log, fmt.Sprintf("pop %d %v", v, res))
		case opPush:
			res := op.f.PushProcE(p, i, dl)
			*log = append(*log, fmt.Sprintf("push %v", res))
		}
	}
	*log = append(*log, fmt.Sprintf("end@%d", p.Now()))
}

// scriptStep runs ops as an engine-run step with the same log.
type scriptStep struct {
	ops      []scriptOp
	log      *[]string
	pc       int
	started  bool
	deadline int64
}

func (s *scriptStep) done() {
	s.pc++
	s.started = false
}

func (s *scriptStep) Step(p *Proc, res WaitResult) Wait {
	for s.pc < len(s.ops) {
		op := s.ops[s.pc]
		if !s.started {
			s.started, s.deadline = true, scriptDeadline(p.Now(), op.n)
			*s.log = append(*s.log, fmt.Sprintf("op%d@%d", s.pc, p.Now()))
			if op.kind == opSleep {
				s.done()
				if op.n > 0 {
					return Wait{Cycles: op.n}
				}
				continue
			}
		}
		switch {
		case res != WaitOK && op.kind == opPop:
			*s.log = append(*s.log, fmt.Sprintf("pop 0 %v", res))
		case res != WaitOK:
			*s.log = append(*s.log, fmt.Sprintf("push %v", res))
		case op.kind == opPop:
			v, ok := op.f.TryPop()
			if !ok {
				return Wait{Data: op.f, Deadline: s.deadline}
			}
			*s.log = append(*s.log, fmt.Sprintf("pop %d ok", v))
			s.done()
			return Wait{Cycles: 1}
		default:
			if !op.f.CanPush() {
				return Wait{Space: op.f, Deadline: s.deadline}
			}
			op.f.TryPush(s.pc)
			*s.log = append(*s.log, "push ok")
			s.done()
			return Wait{Cycles: 1}
		}
		res = WaitOK
		s.done()
	}
	return Wait{}
}

// runScripts runs one script per proc under the given scheduler, as body
// code or through Run, and returns the logs, the error and the cycles.
func runScripts(kind SchedulerKind, viaRun bool, fifos int, scripts func([]*Fifo[int]) [][]scriptOp) ([][]string, string, int64) {
	e := NewEngine()
	e.SetScheduler(kind)
	e.SetMaxCycles(100_000)
	fs := make([]*Fifo[int], fifos)
	for i := range fs {
		fs[i] = NewFifo[int](e, fmt.Sprintf("f%d", i), 1+i%2)
	}
	all := scripts(fs)
	logs := make([][]string, len(all))
	for i, ops := range all {
		i, ops := i, ops
		NewProc(e, fmt.Sprintf("p%d", i), func(p *Proc) {
			if viaRun {
				p.Run(&scriptStep{ops: ops, log: &logs[i]})
				logs[i] = append(logs[i], fmt.Sprintf("end@%d", p.Now()))
				return
			}
			bodyScript(p, ops, &logs[i])
		})
	}
	errs := ""
	if err := e.Run(); err != nil {
		errs = err.Error()
	}
	return logs, errs, e.Now()
}

// checkScriptParity runs scripts as body code and through Run under the
// dense and event schedulers and fails on any difference.
func checkScriptParity(t *testing.T, fifos int, scripts func([]*Fifo[int]) [][]scriptOp) [][]string {
	t.Helper()
	refLogs, refErr, refCycles := runScripts(SchedDense, false, fifos, scripts)
	for _, kind := range []SchedulerKind{SchedDense, SchedEvent} {
		for _, viaRun := range []bool{false, true} {
			logs, err, cycles := runScripts(kind, viaRun, fifos, scripts)
			if err != refErr || cycles != refCycles || !reflect.DeepEqual(logs, refLogs) {
				t.Fatalf("%v run=%v diverges from dense body code:\n got  %d cycles, err %q\n      %v\n want %d cycles, err %q\n      %v",
					kind, viaRun, cycles, err, logs, refCycles, refErr, refLogs)
			}
		}
	}
	return refLogs
}

// Proc sleeps land on their cycle whether the wake is a next bit (1), a
// wheel bit (2 to 127) or a heap entry (128 and beyond), from offsets
// that put the wheel rows on both sides of its wrap.
func TestProcSleepParity(t *testing.T) {
	spans := []int64{1, 2, 127, 128, 129, 2000}
	logs := checkScriptParity(t, 0, func([]*Fifo[int]) [][]scriptOp {
		var all [][]scriptOp
		for off := int64(0); off < 3; off++ {
			ops := []scriptOp{{kind: opSleep, n: off*61 + 1}}
			for _, n := range spans {
				ops = append(ops, scriptOp{kind: opSleep, n: n})
			}
			all = append(all, ops)
		}
		return all
	})
	at := int64(1)
	for i, n := range spans {
		if want := fmt.Sprintf("op%d@%d", i+1, at); logs[0][i+1] != want {
			t.Errorf("sleep %d started at %s, want %s", n, logs[0][i+1], want)
		}
		at += n
	}
}

// A FIFO wake that beats an armed deadline supersedes it, inside the
// wheel's span and beyond it: the waiter then sleeps past the old
// deadline, which must not end the sleep early; a later deadline in the
// same wheel row fires on its own cycle.
func TestSupersededDeadlineParity(t *testing.T) {
	for _, patience := range []int64{60, 127, 128, 600} {
		t.Run(fmt.Sprint(patience), func(t *testing.T) {
			logs := checkScriptParity(t, 1, func(fs []*Fifo[int]) [][]scriptOp {
				f := fs[0]
				return [][]scriptOp{
					{
						{kind: opPop, n: patience, f: f},
						{kind: opSleep, n: patience + 50},
						{kind: opPop, n: wheelSpan - 11, f: f}, // nothing comes: times out
					},
					{{kind: opSleep, n: 10}, {kind: opPush, f: f}},
				}
			})
			if got := strings.Join(logs[0], " "); !strings.Contains(got, "pop 1 ok") || !strings.Contains(got, "pop 0 timeout") {
				t.Errorf("waiter log %q: want one delivery, then one timeout", got)
			}
		})
	}
}

// Random scripts over shared FIFOs: sleeps and patiences on both sides
// of the wheel's span, waits that time out, are superseded or deadlock.
func TestRunScriptParityRandomized(t *testing.T) {
	sleeps := []int64{0, 1, 2, 3, 60, 127, 128, 129, 300}
	patience := []int64{0, 1, 5, 60, 127, 128, 200}
	type draw struct {
		kind scriptKind
		n    int64
		fifo int
	}
	for seed := uint64(1); seed <= 40; seed++ {
		r := &rng{s: seed}
		pick := func(xs []int64) int64 { return xs[r.next()%uint64(len(xs))] }
		draws := make([][]draw, 4)
		for i := range draws {
			for j := 0; j < 12; j++ {
				d := draw{kind: scriptKind(r.next() % 3), n: pick(sleeps), fifo: int(r.next() % 3)}
				if d.kind != opSleep {
					d.n = pick(patience)
				}
				draws[i] = append(draws[i], d)
			}
		}
		checkScriptParity(t, 3, func(fs []*Fifo[int]) [][]scriptOp {
			all := make([][]scriptOp, len(draws))
			for i, ds := range draws {
				for _, d := range ds {
					all[i] = append(all[i], scriptOp{kind: d.kind, n: d.n, f: fs[d.fifo]})
				}
			}
			return all
		})
	}
}

// A group jumping an idle engine across a proc's wheel wake leaves the
// wake due at the first cycle the engine executes — not lost, and not
// replayed a wheel revolution later.
func TestJumpToAcrossProcWheelWake(t *testing.T) {
	e := NewEngine()
	var woke []int64
	NewProc(e, "sleeper", func(p *Proc) {
		p.Sleep(40)
		woke = append(woke, p.Now())
		p.Sleep(200)
		woke = append(woke, p.Now())
	})
	e.startAll()
	defer e.stopProcs()
	if err := e.runWindow(10); err != nil {
		t.Fatal(err)
	}
	e.jumpTo(60)
	if err := e.runWindow(400); err != nil {
		t.Fatal(err)
	}
	if want := []int64{60, 260}; !reflect.DeepEqual(woke, want) {
		t.Errorf("sleeper woke at %v, want %v", woke, want)
	}
}

// tickLoop is an engine-run loop of n one-cycle sleeps.
type tickLoop struct{ n int }

func (l *tickLoop) Step(*Proc, WaitResult) Wait {
	if l.n == 0 {
		return Wait{}
	}
	l.n--
	return Wait{Cycles: 1}
}

// A loop that ends on its first call costs no coroutine switch, and an
// engine-run step is not a proc step.
func TestRunCountsOnlyResumptions(t *testing.T) {
	e := NewEngine()
	NewProc(e, "p", func(p *Proc) {
		for i := 0; i < 10; i++ {
			p.Run(&tickLoop{n: 0})
		}
		p.Run(&tickLoop{n: 100})
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// The body's first entry and its resumption when the loop ends.
	if st := e.SchedStats(); st.ProcSteps != 2 || st.Cycles != 101 {
		t.Errorf("%d proc steps over %d cycles, want 2 over 101", st.ProcSteps, st.Cycles)
	}
}

// panicLoop calls bad from a step: inline on the first call, or from the
// engine's side once the loop has slept.
type panicLoop struct {
	calls int
	first bool
	bad   func(p *Proc)
}

func (l *panicLoop) Step(p *Proc, _ WaitResult) Wait {
	l.calls++
	if l.first || l.calls > 1 {
		l.bad(p)
	}
	return Wait{Cycles: 1}
}

// A cycle-consuming call from a step panics naming the proc, whether the
// step runs inline in Run or from the engine; a step's panic unwinds the
// body, whose deferred functions run, and fails the run.
func TestStepGuard(t *testing.T) {
	f := func(e *Engine) *Fifo[int] { return NewFifo[int](e, "f", 1) }
	bad := map[string]func(*Fifo[int]) func(*Proc){
		"Sleep":    func(*Fifo[int]) func(*Proc) { return func(p *Proc) { p.Sleep(3) } },
		"Tick":     func(*Fifo[int]) func(*Proc) { return func(p *Proc) { p.Tick() } },
		"PushProc": func(f *Fifo[int]) func(*Proc) { return func(p *Proc) { f.PushProc(p, 1) } },
		"PopProcE": func(f *Fifo[int]) func(*Proc) { return func(p *Proc) { f.PopProcE(p, Never) } },
		"Run":      func(*Fifo[int]) func(*Proc) { return func(p *Proc) { p.Run(&tickLoop{}) } },
	}
	for name, mk := range bad {
		for _, first := range []bool{true, false} {
			for _, kind := range []SchedulerKind{SchedEvent, SchedDense} {
				e := NewEngine()
				e.SetScheduler(kind)
				fifo := f(e)
				unwound := false
				NewProc(e, "looper", func(p *Proc) {
					defer func() { unwound = true }()
					p.Run(&panicLoop{first: first, bad: mk(fifo)})
				})
				err := e.Run()
				if err == nil || !strings.Contains(err.Error(), "proc looper: cycle-consuming call inside an engine-run step") {
					t.Errorf("%s (inline %v, %v): run error %v", name, first, kind, err)
				}
				if !unwound {
					t.Errorf("%s (inline %v, %v): body not unwound", name, first, kind)
				}
				if fifo.Len() != 0 || fifo.Pushes() != 0 {
					t.Errorf("%s (inline %v, %v): guarded call touched the FIFO", name, first, kind)
				}
			}
		}
	}
}

// A step's own panic, raised from the engine's side, reaches the body as
// the original value: a body may recover it and go on.
func TestStepPanicReachesBody(t *testing.T) {
	e := NewEngine()
	var got any
	var after int64
	NewProc(e, "p", func(p *Proc) {
		func() {
			defer func() { got = recover() }()
			p.Run(&panicLoop{bad: func(*Proc) { panic("bad packet") }})
		}()
		p.Sleep(5)
		after = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got != "bad packet" || after != 6 {
		t.Errorf("recovered %v, slept until %d; want \"bad packet\" and 6", got, after)
	}
}

// A failed run unwinds a body parked in Run like any other parked body:
// its deferred functions run before Engine.Run returns.
func TestRunLoopUnwoundOnFailedRun(t *testing.T) {
	for _, kind := range []SchedulerKind{SchedEvent, SchedDense} {
		e := NewEngine()
		e.SetScheduler(kind)
		e.SetMaxCycles(100)
		unwound := false
		NewProc(e, "looper", func(p *Proc) {
			defer func() { unwound = true }()
			p.Run(&tickLoop{n: 1000})
		})
		if err := e.Run(); !errors.Is(err, ErrMaxCycles) || !unwound {
			t.Errorf("%v: run error %v, body unwound %v", kind, err, unwound)
		}
	}
}
