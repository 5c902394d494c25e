package smi

import (
	"fmt"

	"repro/internal/packet"
	"repro/internal/sim"
)

// collectiveBase is the state of the collective channel open on a port:
// packing toward the support kernel and unpacking from it, with the same
// cycle accounting as point-to-point channels, and the progress of the
// open operation. It lives in the port's endpoint slot (endpoint.coll):
// the first open on the port allocates it and every later open resets
// it in place.
type collectiveBase struct {
	x    *Ctx
	ep   *endpoint
	gen  uint32 // generation of the open the state belongs to
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

	// Progress of the operation. count is the message size (Bcast,
	// Reduce) or the per-member chunk (Scatter, Gather); sent and rcvd
	// count the elements pushed and popped. pendingPop is set at a Reduce
	// root when a contribution was flushed but the matching result pop
	// failed: a ReduceE retry must not push the contribution again. local
	// is a Scatter or Gather root's own chunk, kept application-local,
	// and lpos the next element of it to pop.
	count      int
	sent       int
	rcvd       int
	pendingPop bool
	local      []uint64
	lpos       int
}

// collHandle is what a collective channel holds: its port's state and
// the generation of the open that made it. A handle used after its
// channel closed panics as an operation beyond the message size does,
// also once the port has been reopened: a stale handle never touches a
// newer channel.
type collHandle struct {
	b   *collectiveBase
	gen uint32
}

// state returns the channel's state, or panics naming op if the channel
// has closed and its port has been reopened since.
func (h collHandle) state(op string) *collectiveBase {
	if h.gen != h.b.gen {
		panic(fmt.Sprintf("smi: %s beyond message size on port %d: the channel closed and the port was reopened", op, h.b.port))
	}
	return h.b
}

// openCollective opens a collective channel of count elements on the
// port, resetting the port's state in place, and returns the handle.
func (x *Ctx) openCollective(kind PortKind, count int, dt Datatype, port, root int, comm Comm, opts []ChannelOption) (collHandle, error) {
	ep, err := x.endpointFor(port, kind, dt, count, comm)
	if err != nil {
		return collHandle{}, err
	}
	if root < 0 || root >= comm.size {
		return collHandle{}, fmt.Errorf("smi: root %d outside %v", root, comm)
	}
	if comm.size > packet.MaxRanks {
		return collHandle{}, fmt.Errorf("smi: communicator of %d ranks exceeds packet header limit", comm.size)
	}
	if ep.inUseSend || ep.inUseRecv {
		return collHandle{}, fmt.Errorf("smi: rank %d port %d already has an open channel", x.rank, port)
	}
	if err := x.runtimeErr("open", port, -1); err != nil {
		return collHandle{}, err
	}
	b := ep.coll
	if b == nil {
		b = new(collectiveBase)
		ep.coll = b
	}
	*b = collectiveBase{
		x: x, ep: ep, gen: b.gen + 1, dt: dt, epp: dt.ElemsPerPacket(), vec: ep.spec.VecWidth,
		port: port, comm: comm, root: comm.Global(root), isRoot: comm.Global(root) == x.rank,
		patience: x.resolveOpts(opts), count: count, local: b.local[:0],
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
		return collHandle{}, x.waitErr(res, "open", port, -1)
	}
	return collHandle{b: b, gen: b.gen}, nil
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
type BcastChannel struct{ h collHandle }

// OpenBcastChannel opens a broadcast channel for count elements of type
// dt on the given port. root is relative to comm and may be chosen at
// run time: both root and non-root hardware exist at every rank. The
// open's one blocking step delivers the channel configuration to the
// support kernel. The channel lives in the port's endpoint slot, and
// the open allocates only its 16-byte handle, which stays valid until
// the channel closes after count elements.
func (x *Ctx) OpenBcastChannel(count int, dt Datatype, port, root int, comm Comm, opts ...ChannelOption) (*BcastChannel, error) {
	h, err := x.openCollective(Bcast, count, dt, port, root, comm, opts)
	if err != nil {
		return nil, err
	}
	return &BcastChannel{h}, nil
}

// Root reports whether this rank is the broadcast root.
func (ch *BcastChannel) Root() bool { return ch.h.state("Bcast").isRoot }

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
	b := ch.h.state("Bcast")
	if b.sent >= b.count {
		panic(fmt.Sprintf("smi: Bcast beyond message size %d on port %d", b.count, b.port))
	}
	if err := b.x.runtimeErr("bcast", b.port, -1); err != nil {
		return 0, err
	}
	deadline := b.opDeadline()
	b.sent++
	var out uint64
	if b.isRoot {
		if err := b.pushElemE(bits, b.sent == b.count, deadline, "bcast"); err != nil {
			b.sent--
			return 0, err
		}
		out = bits
	} else {
		v, err := b.popElemE(deadline, "bcast", false)
		if err != nil {
			b.sent--
			return 0, err
		}
		out = v
	}
	if b.sent == b.count {
		b.close()
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
type ReduceChannel struct{ h collHandle }

// OpenReduceChannel opens a reduce channel for count elements of type dt
// with the declared reduction operation of the port. op must match the
// port's declared operation (the combinational logic is fixed hardware).
// Like OpenBcastChannel it allocates only its handle, valid until the
// channel closes after count elements.
func (x *Ctx) OpenReduceChannel(count int, dt Datatype, op Op, port, root int, comm Comm, opts ...ChannelOption) (*ReduceChannel, error) {
	ep, ok := x.c.ranks[x.rank].endpoint(port)
	if ok && ep.spec.Kind == Reduce && ep.spec.ReduceOp != op {
		return nil, fmt.Errorf("smi: port %d implements %v, not %v", port, ep.spec.ReduceOp, op)
	}
	h, err := x.openCollective(Reduce, count, dt, port, root, comm, opts)
	if err != nil {
		return nil, err
	}
	return &ReduceChannel{h}, nil
}

// Root reports whether this rank is the reduction root.
func (ch *ReduceChannel) Root() bool { return ch.h.state("Reduce").isRoot }

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
	b := ch.h.state("Reduce")
	if b.sent >= b.count && !b.pendingPop {
		panic(fmt.Sprintf("smi: Reduce beyond message size %d on port %d", b.count, b.port))
	}
	if err := b.x.runtimeErr("reduce", b.port, -1); err != nil {
		return 0, false, err
	}
	deadline := b.opDeadline()
	if !b.pendingPop {
		b.sent++
		// At the root every element flushes immediately: SMI_Reduce pushes
		// a contribution and pops the result of the same element in one
		// call, so the contribution must reach the support kernel (a
		// local-only hop) before the pop. Non-root contributions pack
		// normally.
		if err := b.pushElemE(bits, b.isRoot || b.sent == b.count, deadline, "reduce"); err != nil {
			b.sent--
			return 0, false, err
		}
		if b.isRoot {
			b.pendingPop = true
		}
	}
	if b.isRoot {
		v, perr := b.popElemE(deadline, "reduce", true)
		if perr != nil {
			return 0, false, perr
		}
		b.pendingPop = false
		result, ok = v, true
	}
	if b.sent == b.count {
		b.close()
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
type ScatterChannel struct{ h collHandle }

// OpenScatterChannel opens a scatter channel with a per-member chunk of
// count elements of type dt. Like OpenBcastChannel it allocates only its
// handle, valid until the channel closes: at the root once every chunk
// is pushed and its own popped, elsewhere once its chunk is popped.
func (x *Ctx) OpenScatterChannel(count int, dt Datatype, port, root int, comm Comm, opts ...ChannelOption) (*ScatterChannel, error) {
	h, err := x.openCollective(Scatter, count, dt, port, root, comm, opts)
	if err != nil {
		return nil, err
	}
	return &ScatterChannel{h}, nil
}

// Root reports whether this rank is the scatter root.
func (ch *ScatterChannel) Root() bool { return ch.h.state("Scatter").isRoot }

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
	b := ch.h.state("Scatter push")
	if !b.isRoot {
		panic(fmt.Sprintf("smi: Scatter push on non-root rank %d", b.x.rank))
	}
	total := b.count * b.comm.size
	if b.sent >= total {
		panic(fmt.Sprintf("smi: Scatter push beyond %d elements on port %d", total, b.port))
	}
	if err := b.x.runtimeErr("scatter", b.port, -1); err != nil {
		return err
	}
	member := b.sent / b.count
	if b.comm.Global(member) == b.x.rank {
		// The root's own chunk stays local; it never crosses the
		// support kernel (one cycle of datapath time still passes).
		b.local = append(b.local, bits)
		b.x.proc.Tick()
	} else {
		chunkEnd := (b.sent+1)%b.count == 0
		if err := b.pushElemE(bits, chunkEnd, b.opDeadline(), "scatter"); err != nil {
			return err
		}
	}
	b.sent++
	b.maybeCloseScatter()
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
	b := ch.h.state("Scatter pop")
	if b.rcvd >= b.count {
		panic(fmt.Sprintf("smi: Scatter pop beyond chunk size %d on port %d", b.count, b.port))
	}
	if err := b.x.runtimeErr("scatter", b.port, -1); err != nil {
		return 0, err
	}
	var bits uint64
	if b.isRoot {
		if b.lpos >= len(b.local) {
			panic("smi: Scatter root must push its own chunk before popping it")
		}
		bits = b.local[b.lpos]
		b.lpos++
		b.x.proc.Tick()
	} else {
		v, err := b.popElemE(b.opDeadline(), "scatter", false)
		if err != nil {
			return 0, err
		}
		bits = v
	}
	b.rcvd++
	b.maybeCloseScatter()
	return bits, nil
}

// maybeCloseScatter closes a scatter channel once this rank has popped
// its chunk and, at the root, pushed every member's.
func (b *collectiveBase) maybeCloseScatter() {
	done := b.rcvd == b.count
	if b.isRoot {
		done = done && b.sent == b.count*b.comm.size
	}
	if done {
		b.close()
	}
}

// GatherChannel collects count elements from each member at the root.
// Every member (including the root) pushes count elements; the root pops
// comm.Size()*count elements in member-rank order.
type GatherChannel struct{ h collHandle }

// OpenGatherChannel opens a gather channel with a per-member
// contribution of count elements of type dt. Like OpenBcastChannel it
// allocates only its handle, valid until the channel closes: once this
// rank's contribution is pushed and, at the root, every one popped.
func (x *Ctx) OpenGatherChannel(count int, dt Datatype, port, root int, comm Comm, opts ...ChannelOption) (*GatherChannel, error) {
	h, err := x.openCollective(Gather, count, dt, port, root, comm, opts)
	if err != nil {
		return nil, err
	}
	return &GatherChannel{h}, nil
}

// Root reports whether this rank is the gather root.
func (ch *GatherChannel) Root() bool { return ch.h.state("Gather").isRoot }

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
	b := ch.h.state("Gather push")
	if b.sent >= b.count {
		panic(fmt.Sprintf("smi: Gather push beyond contribution size %d on port %d", b.count, b.port))
	}
	if err := b.x.runtimeErr("gather", b.port, -1); err != nil {
		return err
	}
	if b.isRoot {
		b.local = append(b.local, bits)
		b.x.proc.Tick()
	} else {
		if err := b.pushElemE(bits, b.sent+1 == b.count, b.opDeadline(), "gather"); err != nil {
			return err
		}
	}
	b.sent++
	b.maybeCloseGather()
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
	b := ch.h.state("Gather pop")
	if !b.isRoot {
		panic(fmt.Sprintf("smi: Gather pop on non-root rank %d", b.x.rank))
	}
	total := b.count * b.comm.size
	if b.rcvd >= total {
		panic(fmt.Sprintf("smi: Gather pop beyond %d elements on port %d", total, b.port))
	}
	if err := b.x.runtimeErr("gather", b.port, -1); err != nil {
		return 0, err
	}
	member := b.rcvd / b.count
	var bits uint64
	if b.comm.Global(member) == b.x.rank {
		if b.lpos >= len(b.local) {
			panic("smi: Gather root must push its contribution before popping it")
		}
		bits = b.local[b.lpos]
		b.lpos++
		b.x.proc.Tick()
	} else {
		v, err := b.popElemE(b.opDeadline(), "gather", false)
		if err != nil {
			return 0, err
		}
		bits = v
	}
	b.rcvd++
	b.maybeCloseGather()
	return bits, nil
}

// maybeCloseGather closes a gather channel once this rank has pushed its
// contribution and, at the root, popped every member's.
func (b *collectiveBase) maybeCloseGather() {
	done := b.sent == b.count
	if b.isRoot {
		done = done && b.rcvd == b.count*b.comm.size
	}
	if done {
		b.close()
	}
}
