package smi

import (
	"fmt"

	"repro/internal/packet"
	"repro/internal/sim"
)

// collectiveBase holds the state shared by all collective channel types:
// packing toward the support kernel and unpacking from it, with the same
// cycle accounting as point-to-point channels.
type collectiveBase struct {
	x    *Ctx
	ep   *endpoint
	dt   Datatype
	epp  int
	vec  int
	port int

	comm   Comm
	root   int // global root rank
	isRoot bool

	// patience is the per-operation deadline in cycles (0 = none).
	patience int64

	// Packing state (toward support kernel).
	cur packet.Packet
	n   int

	// Unpacking state (from support kernel).
	rcv  packet.Packet
	have int
	pos  int
}

func (x *Ctx) openCollective(kind PortKind, count int, dt Datatype, port, root int, comm Comm, opts []ChannelOption) (*collectiveBase, error) {
	ep, err := x.endpointFor(port, kind, dt, count, comm)
	if err != nil {
		return nil, err
	}
	if root < 0 || root >= comm.size {
		return nil, fmt.Errorf("smi: root %d outside %v", root, comm)
	}
	if comm.size > packet.MaxRanks {
		return nil, fmt.Errorf("smi: communicator of %d ranks exceeds packet header limit", comm.size)
	}
	if ep.inUseSend || ep.inUseRecv {
		return nil, fmt.Errorf("smi: rank %d port %d already has an open channel", x.rank, port)
	}
	if err := x.runtimeErr("open", port, -1); err != nil {
		return nil, err
	}
	o := x.resolveOpts(opts)
	b := &collectiveBase{
		x: x, ep: ep, dt: dt, epp: dt.ElemsPerPacket(), vec: ep.spec.VecWidth,
		port: port, comm: comm, root: comm.Global(root), isRoot: comm.Global(root) == x.rank,
		patience: o.patience,
	}
	// Deliver the dynamic channel configuration to the support kernel.
	// This is the one collective open step that blocks, so it honors the
	// channel deadline; a failed open leaves the port reusable.
	cfg := packet.EncodeConfig(uint16(x.rank), uint8(port), packet.Config{
		Root:  uint16(b.root),
		Count: uint32(count),
		Base:  uint16(comm.base),
		Size:  uint16(comm.size),
	})
	ep.inUseSend, ep.inUseRecv = true, true
	if res := ep.appSend.PushProcE(x.proc, cfg, b.opDeadline()); res != sim.WaitOK {
		ep.inUseSend, ep.inUseRecv = false, false
		return nil, x.waitErr(res, "open", port, -1)
	}
	return b, nil
}

func (b *collectiveBase) close() {
	b.ep.inUseSend, b.ep.inUseRecv = false, false
}

// opDeadline converts the channel's patience into an absolute deadline
// for one operation starting now.
func (b *collectiveBase) opDeadline() int64 {
	if b.patience <= 0 {
		return sim.Never
	}
	return b.x.Now() + b.patience
}

// pushElemE packs one element toward the support kernel, flushing on
// packet boundaries and at flushAfter (total elements after which the
// current packet must flush even if partial, e.g. a scatter chunk end).
// A failed flush un-stages the element so the caller can retry.
func (b *collectiveBase) pushElemE(bits uint64, flushAfter bool, deadline int64, op string) error {
	b.cur.PutElem(b.n, b.dt, bits)
	b.n++
	if b.n == b.epp || flushAfter {
		if err := b.flushE(deadline, op); err != nil {
			b.n--
			return err
		}
	}
	return nil
}

func (b *collectiveBase) flushE(deadline int64, op string) error {
	if b.n == 0 {
		return nil
	}
	b.cur.Src = uint16(b.x.rank)
	b.cur.Dst = uint16(b.x.rank) // the support kernel retargets
	b.cur.Port = uint8(b.port)
	b.cur.Op = packet.OpData
	b.cur.Count = uint8(b.n)
	cycles := int64((b.n + b.vec - 1) / b.vec)
	if cycles > 1 {
		b.x.proc.Sleep(cycles - 1)
	}
	if res := b.ep.appSend.PushProcE(b.x.proc, b.cur, deadline); res != sim.WaitOK {
		return b.x.waitErr(res, op, b.port, -1)
	}
	b.cur = packet.Packet{}
	b.n = 0
	return nil
}

// popElemE unpacks one element delivered by the support kernel. paired
// pops consume no cycle of their own (the caller's matching push already
// paid for the loop iteration — the SMI_Reduce root path).
func (b *collectiveBase) popElemE(deadline int64, op string, paired bool) (uint64, error) {
	if b.have == 0 {
		pkt, res := b.ep.appRecv.PopProcPairedE(b.x.proc, deadline)
		if res != sim.WaitOK {
			return 0, b.x.waitErr(res, op, b.port, -1)
		}
		if pkt.Op != packet.OpData || pkt.Count == 0 {
			panic(fmt.Sprintf("smi: rank %d port %d: unexpected %v packet from support kernel", b.x.rank, b.port, pkt.Op))
		}
		if !paired {
			// Pop, then the cycles a pipelined consumer spends draining
			// the packet — the pop's own cycle among them.
			b.x.proc.Sleep(int64((int(pkt.Count) + b.vec - 1) / b.vec))
		}
		b.rcv = pkt
		b.have = int(pkt.Count)
		b.pos = 0
	}
	bits := b.rcv.Elem(b.pos, b.dt)
	b.pos++
	b.have--
	return bits, nil
}

// BcastChannel is a broadcast channel (SMI_Open_bcast_channel /
// SMI_Bcast). The root streams count elements; every other member of the
// communicator receives them.
type BcastChannel struct {
	b     *collectiveBase
	count int
	used  int
}

// OpenBcastChannel opens a broadcast channel for count elements of type
// dt on the given port. root is relative to comm and may be chosen at
// run time: both root and non-root hardware exist at every rank.
func (x *Ctx) OpenBcastChannel(count int, dt Datatype, port, root int, comm Comm, opts ...ChannelOption) (*BcastChannel, error) {
	b, err := x.openCollective(Bcast, count, dt, port, root, comm, opts)
	if err != nil {
		return nil, err
	}
	return &BcastChannel{b: b, count: count}, nil
}

// Root reports whether this rank is the broadcast root.
func (ch *BcastChannel) Root() bool { return ch.b.isRoot }

// Bcast participates in the broadcast for one element: the root pushes
// bits toward the other ranks (and gets them back unchanged); non-root
// ranks ignore bits and return the received element. A runtime failure
// panics with the ChannelError that BcastE would return.
func (ch *BcastChannel) Bcast(bits uint64) uint64 {
	out, err := ch.BcastE(bits)
	if err != nil {
		panic(err)
	}
	return out
}

// BcastE is Bcast with a recoverable error surface: each member returns
// the first runtime error its own operation sequence observes. A failed
// call consumes nothing and may be retried.
func (ch *BcastChannel) BcastE(bits uint64) (uint64, error) {
	if ch.used >= ch.count {
		panic(fmt.Sprintf("smi: Bcast beyond message size %d on port %d", ch.count, ch.b.port))
	}
	if err := ch.b.x.runtimeErr("bcast", ch.b.port, -1); err != nil {
		return 0, err
	}
	deadline := ch.b.opDeadline()
	ch.used++
	var out uint64
	if ch.b.isRoot {
		if err := ch.b.pushElemE(bits, ch.used == ch.count, deadline, "bcast"); err != nil {
			ch.used--
			return 0, err
		}
		out = bits
	} else {
		v, err := ch.b.popElemE(deadline, "bcast", false)
		if err != nil {
			ch.used--
			return 0, err
		}
		out = v
	}
	if ch.used == ch.count {
		ch.b.close()
	}
	return out, nil
}

// BcastFloat broadcasts one float32 element.
func (ch *BcastChannel) BcastFloat(v float32) float32 {
	return packet.BitsFloat(ch.Bcast(packet.FloatBits(v)))
}

// BcastInt broadcasts one int32 element.
func (ch *BcastChannel) BcastInt(v int32) int32 {
	return packet.BitsInt(ch.Bcast(packet.IntBits(v)))
}

// ReduceChannel is a reduction channel (SMI_Open_reduce_channel /
// SMI_Reduce). Every member contributes count elements; the reduced
// result is produced at the root.
type ReduceChannel struct {
	b     *collectiveBase
	count int
	sent  int
	// pendingPop is set at the root when a contribution was flushed but
	// the matching result pop failed: a ReduceE retry must not push the
	// contribution again.
	pendingPop bool
}

// OpenReduceChannel opens a reduce channel for count elements of type dt
// with the declared reduction operation of the port. op must match the
// port's declared operation (the combinational logic is fixed hardware).
func (x *Ctx) OpenReduceChannel(count int, dt Datatype, op Op, port, root int, comm Comm, opts ...ChannelOption) (*ReduceChannel, error) {
	ep, ok := x.c.ranks[x.rank].endpoint(port)
	if ok && ep.spec.Kind == Reduce && ep.spec.ReduceOp != op {
		return nil, fmt.Errorf("smi: port %d implements %v, not %v", port, ep.spec.ReduceOp, op)
	}
	b, err := x.openCollective(Reduce, count, dt, port, root, comm, opts)
	if err != nil {
		return nil, err
	}
	return &ReduceChannel{b: b, count: count}, nil
}

// Root reports whether this rank is the reduction root.
func (ch *ReduceChannel) Root() bool { return ch.b.isRoot }

// Reduce contributes one element; at the root it returns the fully
// reduced element (ok=true), elsewhere ok=false. Elements are reduced in
// order: the i-th result combines the i-th contribution of every rank.
// A runtime failure panics with the ChannelError that ReduceE would
// return.
func (ch *ReduceChannel) Reduce(bits uint64) (result uint64, ok bool) {
	result, ok, err := ch.ReduceE(bits)
	if err != nil {
		panic(err)
	}
	return result, ok
}

// ReduceE is Reduce with a recoverable error surface. A failed call may
// be retried with the same element: if the root's contribution was
// already flushed when the result pop failed, the retry skips the push
// and only re-attempts the pop.
func (ch *ReduceChannel) ReduceE(bits uint64) (result uint64, ok bool, err error) {
	if ch.sent >= ch.count && !ch.pendingPop {
		panic(fmt.Sprintf("smi: Reduce beyond message size %d on port %d", ch.count, ch.b.port))
	}
	if err := ch.b.x.runtimeErr("reduce", ch.b.port, -1); err != nil {
		return 0, false, err
	}
	deadline := ch.b.opDeadline()
	if !ch.pendingPop {
		ch.sent++
		// At the root every element flushes immediately: SMI_Reduce pushes
		// a contribution and pops the result of the same element in one
		// call, so the contribution must reach the support kernel (a
		// local-only hop) before the pop. Non-root contributions pack
		// normally.
		if err := ch.b.pushElemE(bits, ch.b.isRoot || ch.sent == ch.count, deadline, "reduce"); err != nil {
			ch.sent--
			return 0, false, err
		}
		if ch.b.isRoot {
			ch.pendingPop = true
		}
	}
	if ch.b.isRoot {
		v, perr := ch.b.popElemE(deadline, "reduce", true)
		if perr != nil {
			return 0, false, perr
		}
		ch.pendingPop = false
		result, ok = v, true
	}
	if ch.sent == ch.count {
		ch.b.close()
	}
	return result, ok, nil
}

// ReduceFloat contributes one float32 element.
func (ch *ReduceChannel) ReduceFloat(v float32) (float32, bool) {
	bits, ok := ch.Reduce(packet.FloatBits(v))
	return packet.BitsFloat(bits), ok
}

// ReduceInt contributes one int32 element.
func (ch *ReduceChannel) ReduceInt(v int32) (int32, bool) {
	bits, ok := ch.Reduce(packet.IntBits(v))
	return packet.BitsInt(bits), ok
}

// ScatterChannel distributes count elements to each member of the
// communicator from the root (SMI-style streaming Scatter). The root
// pushes comm.Size()*count elements in member-rank order; every member
// (including the root) pops its count-element chunk.
type ScatterChannel struct {
	b     *collectiveBase
	count int // per-member chunk size
	sent  int
	rcvd  int
	local []uint64 // root's own chunk, kept application-local
	lpos  int
}

// OpenScatterChannel opens a scatter channel with a per-member chunk of
// count elements of type dt.
func (x *Ctx) OpenScatterChannel(count int, dt Datatype, port, root int, comm Comm, opts ...ChannelOption) (*ScatterChannel, error) {
	b, err := x.openCollective(Scatter, count, dt, port, root, comm, opts)
	if err != nil {
		return nil, err
	}
	return &ScatterChannel{b: b, count: count}, nil
}

// Root reports whether this rank is the scatter root.
func (ch *ScatterChannel) Root() bool { return ch.b.isRoot }

// Push streams the next element of the root's send buffer (member-rank
// order, comm.Size()*count elements total). Only the root may push. A
// runtime failure panics with the ChannelError that PushE would return.
func (ch *ScatterChannel) Push(bits uint64) {
	if err := ch.PushE(bits); err != nil {
		panic(err)
	}
}

// PushE is Push with a recoverable error surface; a failed call consumes
// nothing and may be retried.
func (ch *ScatterChannel) PushE(bits uint64) error {
	if !ch.b.isRoot {
		panic(fmt.Sprintf("smi: Scatter push on non-root rank %d", ch.b.x.rank))
	}
	total := ch.count * ch.b.comm.size
	if ch.sent >= total {
		panic(fmt.Sprintf("smi: Scatter push beyond %d elements on port %d", total, ch.b.port))
	}
	if err := ch.b.x.runtimeErr("scatter", ch.b.port, -1); err != nil {
		return err
	}
	member := ch.sent / ch.count
	if ch.b.comm.Global(member) == ch.b.x.rank {
		// The root's own chunk stays local; it never crosses the
		// support kernel (one cycle of datapath time still passes).
		ch.local = append(ch.local, bits)
		ch.b.x.proc.Tick()
	} else {
		chunkEnd := (ch.sent+1)%ch.count == 0
		if err := ch.b.pushElemE(bits, chunkEnd, ch.b.opDeadline(), "scatter"); err != nil {
			return err
		}
	}
	ch.sent++
	ch.maybeClose()
	return nil
}

// Pop returns the next element of this rank's chunk. A runtime failure
// panics with the ChannelError that PopE would return.
func (ch *ScatterChannel) Pop() uint64 {
	bits, err := ch.PopE()
	if err != nil {
		panic(err)
	}
	return bits
}

// PopE is Pop with a recoverable error surface; a failed call consumes
// nothing and may be retried.
func (ch *ScatterChannel) PopE() (uint64, error) {
	if ch.rcvd >= ch.count {
		panic(fmt.Sprintf("smi: Scatter pop beyond chunk size %d on port %d", ch.count, ch.b.port))
	}
	if err := ch.b.x.runtimeErr("scatter", ch.b.port, -1); err != nil {
		return 0, err
	}
	var bits uint64
	if ch.b.isRoot {
		if ch.lpos >= len(ch.local) {
			panic("smi: Scatter root must push its own chunk before popping it")
		}
		bits = ch.local[ch.lpos]
		ch.lpos++
		ch.b.x.proc.Tick()
	} else {
		v, err := ch.b.popElemE(ch.b.opDeadline(), "scatter", false)
		if err != nil {
			return 0, err
		}
		bits = v
	}
	ch.rcvd++
	ch.maybeClose()
	return bits, nil
}

func (ch *ScatterChannel) maybeClose() {
	done := ch.rcvd == ch.count
	if ch.b.isRoot {
		done = done && ch.sent == ch.count*ch.b.comm.size
	}
	if done {
		ch.b.close()
	}
}

// GatherChannel collects count elements from each member at the root.
// Every member (including the root) pushes count elements; the root pops
// comm.Size()*count elements in member-rank order.
type GatherChannel struct {
	b     *collectiveBase
	count int
	sent  int
	rcvd  int
	local []uint64 // root's own contribution, kept application-local
	lpos  int
}

// OpenGatherChannel opens a gather channel with a per-member
// contribution of count elements of type dt.
func (x *Ctx) OpenGatherChannel(count int, dt Datatype, port, root int, comm Comm, opts ...ChannelOption) (*GatherChannel, error) {
	b, err := x.openCollective(Gather, count, dt, port, root, comm, opts)
	if err != nil {
		return nil, err
	}
	return &GatherChannel{b: b, count: count}, nil
}

// Root reports whether this rank is the gather root.
func (ch *GatherChannel) Root() bool { return ch.b.isRoot }

// Push streams the next element of this rank's contribution. A runtime
// failure panics with the ChannelError that PushE would return.
func (ch *GatherChannel) Push(bits uint64) {
	if err := ch.PushE(bits); err != nil {
		panic(err)
	}
}

// PushE is Push with a recoverable error surface; a failed call consumes
// nothing and may be retried.
func (ch *GatherChannel) PushE(bits uint64) error {
	if ch.sent >= ch.count {
		panic(fmt.Sprintf("smi: Gather push beyond contribution size %d on port %d", ch.count, ch.b.port))
	}
	if err := ch.b.x.runtimeErr("gather", ch.b.port, -1); err != nil {
		return err
	}
	if ch.b.isRoot {
		ch.local = append(ch.local, bits)
		ch.b.x.proc.Tick()
	} else {
		if err := ch.b.pushElemE(bits, ch.sent+1 == ch.count, ch.b.opDeadline(), "gather"); err != nil {
			return err
		}
	}
	ch.sent++
	ch.maybeClose()
	return nil
}

// Pop returns the next gathered element at the root (member-rank order).
// A runtime failure panics with the ChannelError that PopE would return.
func (ch *GatherChannel) Pop() uint64 {
	bits, err := ch.PopE()
	if err != nil {
		panic(err)
	}
	return bits
}

// PopE is Pop with a recoverable error surface; a failed call consumes
// nothing and may be retried.
func (ch *GatherChannel) PopE() (uint64, error) {
	if !ch.b.isRoot {
		panic(fmt.Sprintf("smi: Gather pop on non-root rank %d", ch.b.x.rank))
	}
	total := ch.count * ch.b.comm.size
	if ch.rcvd >= total {
		panic(fmt.Sprintf("smi: Gather pop beyond %d elements on port %d", total, ch.b.port))
	}
	if err := ch.b.x.runtimeErr("gather", ch.b.port, -1); err != nil {
		return 0, err
	}
	member := ch.rcvd / ch.count
	var bits uint64
	if ch.b.comm.Global(member) == ch.b.x.rank {
		if ch.lpos >= len(ch.local) {
			panic("smi: Gather root must push its contribution before popping it")
		}
		bits = ch.local[ch.lpos]
		ch.lpos++
		ch.b.x.proc.Tick()
	} else {
		v, err := ch.b.popElemE(ch.b.opDeadline(), "gather", false)
		if err != nil {
			return 0, err
		}
		bits = v
	}
	ch.rcvd++
	ch.maybeClose()
	return bits, nil
}

func (ch *GatherChannel) maybeClose() {
	done := ch.sent == ch.count
	if ch.b.isRoot {
		done = done && ch.rcvd == ch.count*ch.b.comm.size
	}
	if done {
		ch.b.close()
	}
}
