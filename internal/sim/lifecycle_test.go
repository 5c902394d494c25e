package sim

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// Proc lifecycle: however a run ends, every proc body that was entered
// has been unwound (its deferred functions ran) before Run returns, a
// body that was never entered stays that way, and no goroutine is left
// behind. The channel hand-off this replaced stranded a proc that had
// yielded but not yet re-parked, and started unstarted bodies post-mortem.

// tally counts proc bodies entered and unwound; Group workers run
// engines concurrently, hence the atomics.
type tally struct{ entered, unwound atomic.Int32 }

func (c *tally) body(f func(*Proc)) func(*Proc) {
	return func(p *Proc) {
		c.entered.Add(1)
		defer c.unwound.Add(1)
		f(p)
	}
}

func tickForever(p *Proc) {
	for {
		p.Tick()
	}
}

// canceller stays active until cycle `at`, cancels every cancellable
// wait on its engine there, and goes quiet.
type canceller struct {
	e  *Engine
	at int64
}

func (k *canceller) Name() string { return "canceller" }
func (k *canceller) Tick(now int64) bool {
	if now == k.at {
		k.e.CancelWaits()
	}
	return now <= k.at
}

// waitGoroutines waits for the goroutine count to fall back to want
// (Group workers signal their WaitGroup just before they exit).
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines after the run, %d before it:\n%s",
				runtime.NumGoroutine(), want, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}

func TestProcLifecycle(t *testing.T) {
	const maxCycles = 200
	drivers := []struct {
		name  string
		build func() ([]*Engine, func() error)
	}{
		{"event", func() ([]*Engine, func() error) {
			e := NewEngine()
			e.SetMaxCycles(maxCycles)
			return []*Engine{e}, e.Run
		}},
		{"dense", func() ([]*Engine, func() error) {
			e := NewEngine()
			e.SetMaxCycles(maxCycles)
			e.SetScheduler(SchedDense)
			return []*Engine{e}, e.Run
		}},
		{"group2", func() ([]*Engine, func() error) {
			// The crossing boundary bounds the rounds (4 cycles of
			// lookahead), so the group reaches barriers before the limit.
			es := []*Engine{NewEngine(), NewEngine()}
			NewBoundary[int](es[0], es[1], es[1].AddKernel(&probe{name: "inlet"}), 4)
			return es, func() error { return NewGroup(es, maxCycles, 2).Run() }
		}},
	}

	// A scenario registers procs (wrapped by c.body) and returns the
	// check of Run's error and the number of bodies that must have been
	// entered.
	scenarios := []struct {
		name  string
		setup func(t *testing.T, es []*Engine, c *tally) (check func(error), entered int32)
	}{
		{"deadlock", func(t *testing.T, es []*Engine, c *tally) (func(error), int32) {
			for i := 0; i < 8; i++ {
				e := es[i%len(es)]
				f := NewFifo[int](e, fmt.Sprintf("empty%d", i), 1)
				NewProc(e, fmt.Sprintf("p%d", i), c.body(func(p *Proc) { f.PopProc(p) }))
			}
			return func(err error) {
				var dl *DeadlockError
				if !errors.As(err, &dl) || len(dl.Blocked) != 8 {
					t.Errorf("want a deadlock with 8 blocked procs, got %v", err)
				}
			}, 8
		}},
		{"max-cycles", func(t *testing.T, es []*Engine, c *tally) (func(error), int32) {
			for i := 0; i < 8; i++ {
				NewProc(es[i%len(es)], fmt.Sprintf("p%d", i), c.body(tickForever))
			}
			return func(err error) {
				if !errors.Is(err, ErrMaxCycles) {
					t.Errorf("want ErrMaxCycles, got %v", err)
				}
			}, 8
		}},
		{"panic-at-cycle-0", func(t *testing.T, es []*Engine, c *tally) (func(error), int32) {
			// Other engines of a group run their first window regardless;
			// on the panicking engine nothing registered later may start.
			for _, e := range es[1:] {
				NewProc(e, "bystander", c.body(tickForever))
			}
			NewProc(es[0], "bad", c.body(func(*Proc) { panic("boom") }))
			var late atomic.Int32
			for i := 0; i < 3; i++ {
				NewProc(es[0], fmt.Sprintf("late%d", i), func(*Proc) { late.Add(1) })
			}
			return func(err error) {
				if err == nil || !strings.Contains(err.Error(), "proc bad: panic: boom") {
					t.Errorf("want bad's panic, got %v", err)
				}
				if n := late.Load(); n != 0 {
					t.Errorf("%d bodies registered after the panicking proc were entered", n)
				}
			}, int32(len(es))
		}},
		{"cancel-waits", func(t *testing.T, es []*Engine, c *tally) (func(error), int32) {
			for i, e := range es {
				e.AddKernel(&canceller{e: e, at: 10})
				f := NewFifo[int](e, fmt.Sprintf("empty%d", i), 1)
				for j := 0; j < 3; j++ {
					NewProc(e, fmt.Sprintf("e%d.abortable%d", i, j), c.body(func(p *Proc) {
						if _, res := f.PopProcE(p, Never); res != WaitAborted {
							t.Errorf("%s: wait ended %v, want aborted", p.Name(), res)
						}
					}))
				}
				NewProc(e, fmt.Sprintf("e%d.stuck", i), c.body(func(p *Proc) { f.PopProc(p) }))
			}
			return func(err error) {
				var dl *DeadlockError
				if !errors.As(err, &dl) || len(dl.Blocked) != len(es) {
					t.Errorf("want a deadlock with %d blocked procs, got %v", len(es), err)
				}
			}, int32(4 * len(es))
		}},
	}

	for _, d := range drivers {
		for _, sc := range scenarios {
			t.Run(d.name+"/"+sc.name, func(t *testing.T) {
				es, run := d.build()
				var c tally
				check, entered := sc.setup(t, es, &c)
				before := runtime.NumGoroutine()
				check(run())
				if got := c.entered.Load(); got != entered {
					t.Errorf("%d proc bodies entered, want %d", got, entered)
				}
				if got := c.unwound.Load(); got != entered {
					t.Errorf("%d of %d entered proc bodies were unwound", got, entered)
				}
				waitGoroutines(t, before)
			})
		}
	}
}

// A body that recovers the kill and carries on is killed again at its
// next cycle-consuming call; it is never resumed.
func TestKilledProcStaysKilled(t *testing.T) {
	e := NewEngine()
	e.SetMaxCycles(10)
	kills, resumed := 0, false
	NewProc(e, "stubborn", func(p *Proc) {
		tick := func() (killed bool) {
			defer func() { killed = recover() != nil }()
			p.Tick()
			return false
		}
		for !tick() { // until the cycle limit kills it
		}
		for i := 0; i < 3; i++ {
			if tick() {
				kills++
			} else {
				resumed = true
			}
		}
	})
	before := runtime.NumGoroutine()
	if err := e.Run(); !errors.Is(err, ErrMaxCycles) {
		t.Fatalf("want ErrMaxCycles, got %v", err)
	}
	if kills != 3 || resumed {
		t.Errorf("after the kill: %d of 3 further ticks killed, resumed=%v", kills, resumed)
	}
	waitGoroutines(t, before)
}
