package transport

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/packet"
	"repro/internal/sim"
)

// ckRun is what one scheduler observed of a lone CK: every pop routed by
// it and every packet its consumers drained, each stamped with its cycle.
type ckRun struct {
	Cycles                      int64
	Routed, Drained             []string
	Forwarded, Stalls, Fragment uint64
}

// runCKPolling drives one CK with five inputs and two shallow outputs
// from seeded producer and consumer procs: bursts that leave several
// inputs holding data at once, stream fragments whose raw words trickle
// in behind their header (a route lock whose input runs dry), and
// consumers slow enough to fill the outputs (held packets).
func runCKPolling(t *testing.T, sched sim.SchedulerKind, arb Arbiter, r int) (run ckRun, ticks int64) {
	t.Helper()
	const inputs, perInput = 5, 40
	e := sim.NewEngine()
	e.SetScheduler(sched)
	e.SetMaxCycles(1_000_000)
	var ins []*sim.Fifo[packet.Packet]
	var names []string
	for i := 0; i < inputs; i++ {
		ins = append(ins, sim.NewFifo[packet.Packet](e, fmt.Sprintf("in%d", i), 2))
		names = append(names, fmt.Sprintf("in%d", i))
	}
	outs := []*sim.Fifo[packet.Packet]{
		sim.NewFifo[packet.Packet](e, "out0", 1),
		sim.NewFifo[packet.Packet](e, "out1", 1),
	}
	route := func(p packet.Packet) *sim.Fifo[packet.Packet] {
		run.Routed = append(run.Routed, fmt.Sprintf("%d %v", e.Now(), p))
		return outs[p.Dst]
	}
	k := newCK("ck", ins, names, len(outs), r, arb == ArbiterSkipIdle, route)
	k.attach(e)

	// Each producer's script is drawn up front so the consumers know how
	// many packets each output receives.
	rng := rand.New(rand.NewSource(int64(r)*10 + int64(arb)))
	type step struct {
		sleep int64
		p     packet.Packet
	}
	want := make([]int, len(outs))
	for i := 0; i < inputs; i++ {
		var script []step
		for n := 0; n < perInput; {
			dst := uint16(rng.Intn(len(outs)))
			sleep := int64(0)
			if rng.Intn(3) == 0 {
				sleep = int64(rng.Intn(40)) // a quiet spell, then a burst
			}
			if rng.Intn(6) == 0 {
				words := 2 + rng.Intn(4)
				hdr := packet.EncodeStreamFrag(uint16(i), dst, 0, packet.StreamFrag{Seq: uint32(n), Words: uint32(words), Elems: uint32(8 * words), Last: true})
				script = append(script, step{sleep, hdr})
				for w := 0; w < words; w++ {
					raw := packet.Packet{Src: uint16(i), Op: packet.OpRaw, Count: 8}
					raw.PutRawElem(0, packet.Int, packet.IntBits(int32(n+w)))
					script = append(script, step{int64(rng.Intn(3)) * int64(rng.Intn(8)), raw})
				}
				want[dst] += 1 + words
				n += 1 + words
				continue
			}
			p := packet.Packet{Src: uint16(i), Dst: dst, Op: packet.OpData, Count: 1}
			p.PutElem(0, packet.Int, packet.IntBits(int32(n)))
			script = append(script, step{sleep, p})
			want[dst]++
			n++
		}
		sim.NewProc(e, fmt.Sprintf("producer%d", i), func(p *sim.Proc) {
			for _, s := range script {
				p.Sleep(s.sleep)
				ins[i].PushProc(p, s.p)
			}
		})
	}
	for o, out := range outs {
		pace := rand.New(rand.NewSource(int64(o) + 100))
		sim.NewProc(e, fmt.Sprintf("consumer%d", o), func(p *sim.Proc) {
			for n := 0; n < want[o]; n++ {
				p.Sleep(int64(pace.Intn(4)))
				pkt := out.PopProc(p)
				run.Drained = append(run.Drained, fmt.Sprintf("%d out%d %v", p.Now(), o, pkt))
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatalf("%v: %v", sched, err)
	}
	st := e.SchedStats()
	run.Cycles = st.Cycles
	run.Forwarded, run.Stalls, run.Fragment = k.forwarded, k.stalls, k.fragments
	return run, st.KernelTicks
}

// The event engine ticks a polling CK only on the cycles its pointer
// reaches data (see ck.IdleUntil); every forward must still happen on the
// cycle the dense scan performs it, for both arbiters and both read
// budgets. The skip-idle arbiter is the case a horizon of now+1+k (k
// empty inputs ahead of the first full one) would get wrong: it serves
// the full input at once.
func TestCKPollingEventMatchesDense(t *testing.T) {
	for _, arb := range []Arbiter{ArbiterRoundRobin, ArbiterSkipIdle} {
		for _, r := range []int{1, 8} {
			t.Run(fmt.Sprintf("%v/R=%d", arb, r), func(t *testing.T) {
				dense, denseTicks := runCKPolling(t, sim.SchedDense, arb, r)
				event, eventTicks := runCKPolling(t, sim.SchedEvent, arb, r)
				if dense.Stalls == 0 || dense.Fragment == 0 {
					t.Fatalf("the run exercised no held packet (%d stalls) or no route lock (%d fragments)", dense.Stalls, dense.Fragment)
				}
				for i := range dense.Routed {
					if i >= len(event.Routed) || dense.Routed[i] != event.Routed[i] {
						t.Fatalf("pop %d: dense routed %q, event %q", i, dense.Routed[i], event.Routed[min(i, len(event.Routed)-1)])
					}
				}
				if !reflect.DeepEqual(dense, event) {
					t.Fatalf("event run diverges from the dense scan:\ndense %+v\nevent %+v", dense, event)
				}
				if eventTicks >= denseTicks {
					t.Errorf("the event engine ticked %d times, the dense scan %d: nothing parked", eventTicks, denseTicks)
				}
			})
		}
	}
}
