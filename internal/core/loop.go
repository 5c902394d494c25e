package smi

import (
	"fmt"

	"repro/internal/sim"
)

// LoopOp is one operation of a Loop iteration: pop one element from
// Recv, push one element to Send, or sleep Sleep cycles — exactly one of
// the three.
type LoopOp struct {
	Recv  *RecvChannel
	Send  *SendChannel
	Sleep int64
}

// Loop runs trips iterations of a pipelined loop whose per-iteration
// access pattern is known up front — the II=1 loop of an HLS kernel
// streaming messages during computation (paper Listing 3). Each iteration
// performs ops in order, with exactly the cycles and FIFO operations of
// the equivalent Pop, Push and Sleep calls, but the engine runs the
// whole loop in the proc's own slot: it costs one coroutine round trip,
// not one per op.
//
// vals holds one value per op: a pop stores the element it popped in its
// op's slot, a push sends its op's slot. elem, if not nil, runs once per
// iteration i at that iteration's cycle — before its first push, or after
// its last op if it pushes nothing — so it sees the iteration's pops and
// sets the values its pushes send. elem must not call cycle-consuming
// operations. Loop returns the first channel error; the loop then stops,
// and the failed op's channel is left as its failed PopE or PushE would
// leave it.
func (x *Ctx) Loop(trips int, ops []LoopOp, elem func(i int, vals []uint64)) error {
	if x.loop == nil {
		x.loop = new(loopRun)
	}
	l := x.loop
	if cap(l.vals) < len(ops) {
		l.vals = make([]uint64, len(ops))
	}
	*l = loopRun{ops: ops, vals: l.vals[:len(ops)], elem: elem, trips: trips}
	x.proc.Run(l)
	err := l.err
	l.ops, l.elem, l.err = nil, nil, nil
	return err
}

// loopRun is Loop's engine-run step. A pop or push op runs one element
// of its channel's path (recvPath, sendPath) as a nested step, so the
// loop's per-packet data path is the channels' own.
type loopRun struct {
	ops      []LoopOp
	vals     []uint64
	elem     func(int, []uint64)
	trips    int
	i, k     int  // iteration, op within it
	computed bool // elem ran for iteration i
	inOp     bool // op k's channel path is running
	err      error
}

func (l *loopRun) Step(p *sim.Proc, res sim.WaitResult) sim.Wait {
	for l.i < l.trips {
		if l.k == len(l.ops) {
			l.compute()
			l.i, l.k, l.computed = l.i+1, 0, false
			continue
		}
		op := &l.ops[l.k]
		if op.Recv == nil && op.Send == nil {
			l.k++
			if op.Sleep > 0 {
				return sim.Wait{Cycles: op.Sleep}
			}
			continue
		}
		if w := l.channelOp(p, op, res); parks(w) {
			return w
		}
		res = sim.WaitOK
		if l.err != nil {
			return sim.Wait{}
		}
		l.k++
	}
	return sim.Wait{}
}

// compute runs elem for the current iteration, once.
func (l *loopRun) compute() {
	if !l.computed && l.elem != nil {
		l.elem(l.i, l.vals)
	}
	l.computed = true
}

// parks reports whether a step's wait parks the proc, i.e. is not the
// zero Wait that ends a loop.
func parks(w sim.Wait) bool { return w.Cycles > 0 || w.Data != nil || w.Space != nil }

// channelOp runs op's one element on its channel's path: it returns the
// path's wait, or the zero Wait once the element is done (l.err set if
// it failed).
func (l *loopRun) channelOp(p *sim.Proc, op *LoopOp, res sim.WaitResult) sim.Wait {
	slot := l.vals[l.k : l.k+1]
	switch {
	case op.Send == nil:
		st := op.Recv.state()
		s := st.x.popPath(st)
		if !l.inOp {
			l.inOp = true
			s.beginBits(slot)
		}
		if w := s.Step(p, res); parks(w) {
			return w
		}
		_, l.err = s.end()
	case op.Recv == nil:
		l.compute()
		st := op.Send.state()
		s := st.x.pushPath(st)
		if !l.inOp {
			l.inOp = true
			s.beginBits(slot)
		}
		if w := s.Step(p, res); parks(w) {
			return w
		}
		_, l.err = s.end()
	default:
		panic(fmt.Sprintf("smi: loop op %d both pops and pushes", l.k))
	}
	l.inOp = false
	return sim.Wait{}
}
