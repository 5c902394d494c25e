package smi

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/sim"
	"repro/internal/topology"
)

// loopShape is one randomized Loop parity case: a three-rank pipeline
// streams trips elements from rank 0 through rank 1 to rank 2. Every
// iteration of rank 0 pushes and sleeps, of rank 1 pops, pushes and
// sleeps, of rank 2 pops and sleeps, each rank in its own op order.
type loopShape struct {
	trips    int
	buffer   int
	vec      int
	mode     Mode
	patience int64
	orders   [3][]int // per rank: an order of its ops (loopPop, loopPush, loopSleep)
	sleeps   [3]int64
	sched    sim.SchedulerKind
}

const (
	loopPop = iota
	loopPush
	loopSleep
)

// runLoopShape runs the case with Loop (viaLoop) or with the equivalent
// PopE, PushE and Sleep calls, logging every iteration's cycle and
// values, and each rank's error.
func runLoopShape(t *testing.T, sh loopShape, viaLoop bool) (logs [3][]string, errs [3]string, cycles int64, runErr string) {
	t.Helper()
	topo, err := topology.Bus(3)
	if err != nil {
		t.Fatal(err)
	}
	port := func(p int) PortSpec {
		return PortSpec{Port: p, Type: Int, BufferElems: sh.buffer, VecWidth: sh.vec, Mode: sh.mode}
	}
	c, err := NewCluster(Config{Topology: topo, Program: ProgramSpec{Ports: []PortSpec{port(0), port(1)}},
		Scheduler: sh.sched, MaxCycles: 200_000})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 3; r++ {
		r := r
		c.OnRank(r, "loop", func(x *Ctx) {
			opts := []ChannelOption{WithDeadline(sh.patience)}
			ops := make([]LoopOp, len(sh.orders[r]))
			popSlot, pushSlot := -1, -1
			for k, op := range sh.orders[r] {
				var err error
				switch op {
				case loopPop:
					popSlot = k
					ops[k].Recv, err = x.OpenRecv(ChannelOpts{Count: sh.trips, Type: Int, Src: r - 1, Port: r - 1, Opts: opts})
				case loopPush:
					pushSlot = k
					ops[k].Send, err = x.OpenSend(ChannelOpts{Count: sh.trips, Type: Int, Dst: r + 1, Port: r, Opts: opts})
				default:
					ops[k].Sleep = sh.sleeps[r]
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
			elem := func(i int, v []uint64) {
				got := uint64(i)
				if popSlot >= 0 {
					got = v[popSlot]
				}
				logs[r] = append(logs[r], fmt.Sprintf("%d@%d got %d", i, x.Now(), got))
				if pushSlot >= 0 {
					v[pushSlot] = got*3 + 1
				}
			}
			if viaLoop {
				if err := x.Loop(sh.trips, ops, elem); err != nil {
					errs[r] = err.Error()
				}
				return
			}
			vals := make([]uint64, len(ops))
			for i := 0; i < sh.trips; i++ {
				computed := false
				for k, op := range ops {
					var err error
					switch {
					case op.Recv != nil:
						vals[k], err = op.Recv.PopE()
					case op.Send != nil:
						if !computed {
							computed = true
							elem(i, vals)
						}
						err = op.Send.PushE(vals[k])
					default:
						x.Sleep(op.Sleep)
					}
					if err != nil {
						errs[r] = err.Error()
						return
					}
				}
				if !computed {
					elem(i, vals)
				}
			}
		})
	}
	st, err := c.Run()
	if err != nil {
		runErr = err.Error()
	}
	return logs, errs, st.Cycles, runErr
}

// A Loop makes exactly the cycles, values, waits and errors of the same
// iterations written as PopE, PushE and Sleep calls, across endpoint
// capacities, datapath widths, modes, deadlines, op orders and both
// schedulers.
func TestLoopMatchesProcCode(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	orders := [3][][]int{
		{{loopPush, loopSleep}, {loopSleep, loopPush}},
		{{loopPop, loopPush, loopSleep}, {loopPop, loopSleep, loopPush}, {loopPush, loopPop, loopSleep},
			{loopPush, loopSleep, loopPop}, {loopSleep, loopPop, loopPush}, {loopSleep, loopPush, loopPop}},
		{{loopPop, loopSleep}, {loopSleep, loopPop}},
	}
	timeouts := 0
	for n := 0; n < 80; n++ {
		sh := loopShape{
			trips:    1 + rng.Intn(60),
			buffer:   1 + rng.Intn(24),
			vec:      1 + rng.Intn(3),
			mode:     []Mode{ModePacket, ModePacket, ModeCredited}[rng.Intn(3)],
			patience: []int64{0, 0, 400}[rng.Intn(3)],
			sched:    []sim.SchedulerKind{sim.SchedEvent, sim.SchedDense}[rng.Intn(2)],
		}
		for r := range sh.orders {
			sh.orders[r] = orders[r][rng.Intn(len(orders[r]))]
			sh.sleeps[r] = int64(rng.Intn(60))
		}
		wantLogs, wantErrs, wantCycles, wantRun := runLoopShape(t, sh, false)
		logs, errs, cycles, run := runLoopShape(t, sh, true)
		if cycles != wantCycles || run != wantRun || errs != wantErrs || !reflect.DeepEqual(logs, wantLogs) {
			t.Fatalf("case %d %+v:\nLoop:  %d cycles, run %q, errs %q\n       %v\nproc:  %d cycles, run %q, errs %q\n       %v",
				n, sh, cycles, run, errs, logs, wantCycles, wantRun, wantErrs, wantLogs)
		}
		if len(logs[2]) < sh.trips && wantErrs[2] != "" {
			timeouts++
		}
	}
	if timeouts == 0 || timeouts > 40 {
		t.Errorf("%d of 80 cases timed out: the shapes should mix completions and timeouts", timeouts)
	}
}

// Bulk calls and loops allocate nothing per call once their endpoint
// views and paths exist: PushSlice and PopSlice convert element by
// element through a reused typed view, and the engine-run steps live in
// the Ctx.
func TestBulkCallsAllocateNothing(t *testing.T) {
	const per, runs = 14, 50
	n := per * 2 * (runs + 2)
	c := busCluster(t, 2, PortSpec{Port: 0, Type: Int, BufferElems: 16})
	check := func(name string, f func()) {
		f() // the first call makes the view and the path
		if a := testing.AllocsPerRun(runs, f); a != 0 {
			t.Errorf("%s: %v allocs per call, want 0", name, a)
		}
	}
	c.OnRank(0, "tx", func(x *Ctx) {
		ch, err := x.OpenSendChannel(n, Int, 1, 0, x.CommWorld())
		if err != nil {
			t.Error(err)
			return
		}
		vs, bits := make([]int32, per), make([]uint64, per)
		check("PushSlice", func() { PushSlice(ch, vs) })
		check("PushN", func() { ch.PushN(bits) })
		for ch.s.sent < n {
			PushSlice(ch, vs[:1])
		}
	})
	c.OnRank(1, "rx", func(x *Ctx) {
		ch, err := x.OpenRecvChannel(n, Int, 0, 0, x.CommWorld())
		if err != nil {
			t.Error(err)
			return
		}
		vs := make([]int32, per)
		check("PopSlice", func() { PopSlice(ch, vs) })
		ops := []LoopOp{{Recv: ch}, {Sleep: 2}}
		elem := func(int, []uint64) {}
		check("Loop", func() {
			if err := x.Loop(per, ops, elem); err != nil {
				t.Error(err)
			}
		})
		for ch.s.received < n {
			PopSlice(ch, vs[:1])
		}
	})
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
}
