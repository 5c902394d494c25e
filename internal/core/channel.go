package smi

import (
	"fmt"

	"repro/internal/packet"
	"repro/internal/sim"
)

// SendChannel is a transient point-to-point send channel
// (SMI_Open_send_channel). Data is pushed element by element; elements
// are packed into network packets and handed to the transport layer.
// The channel closes implicitly after count elements.
//
// A SendChannel is a handle: the channel's state lives in its port's
// endpoint slot, and the handle holds that state and the generation of
// the open that made it. Every operation checks the generation, so a
// handle used after its channel closed panics as a push beyond the
// message size does, also once the port has been reopened: a stale
// handle never writes into a newer message.
type SendChannel struct {
	s   *sendState
	gen uint32
}

// sendState is the state of the send channel open on a port, kept in
// the port's endpoint slot (endpoint.send): the first open on the port
// allocates it and every later open resets it in place.
type sendState struct {
	x   *Ctx
	ep  *endpoint
	gen uint32 // generation of the open the state belongs to
	epp int    // elements per packet
	vec int    // application datapath width, elements per cycle

	count int
	sent  int
	dst   int // global destination rank
	port  int

	// patience is the per-operation deadline in cycles (0 = none): each
	// PushE call must complete within patience cycles of starting.
	patience int64

	cur packet.Packet
	n   int // elements in cur

	// dt, credited and reached share one word, which keeps the struct
	// small. Credit-based flow control (ModeCredited): credits is the
	// number of elements the receiver has granted and not yet used.
	dt       Datatype
	credited bool
	reached  uint32 // route epoch at which dst was last found reachable (see peerErr)
	credits  int

	// Raw-word state. A raw message travels as headerless 32-byte OpRaw
	// words behind OpStream fragment headers of up to batch words each:
	// circuit ports always (batch = the whole message, so one fragment),
	// streaming ports for messages above BufferElems (batch =
	// StreamBatch), which additionally complete a rendezvous first. Both
	// peers derive raw, batch and the rendezvous from the port's mode and
	// the declared count, so they agree without negotiating.
	raw      bool
	rvSent   bool   // rendezvous request pushed
	rvDone   bool   // rendezvous grant received, or none needed
	seq      uint32 // next fragment sequence number
	batch    int    // fragment size in raw words
	fragLeft int    // raw words left in the fragment the last header opened
}

// OpenSendChannel opens a transient channel to stream count elements of
// type dt to rank destination (relative to comm) on the given port.
// Opening is a zero-overhead operation: it only records where data
// should be sent (§3.3), in the port's endpoint slot. Only the port's
// first open allocates that state; an open allocates the 16-byte handle
// it returns and nothing else. The handle stays valid until the channel
// closes after count elements. Options (e.g. WithDeadline) bound the
// blocking behavior of subsequent operations.
func (x *Ctx) OpenSendChannel(count int, dt Datatype, destination, port int, comm Comm, opts ...ChannelOption) (*SendChannel, error) {
	ep, err := x.endpointFor(port, P2P, dt, count, comm)
	if err != nil {
		return nil, err
	}
	if destination < 0 || destination >= comm.size {
		return nil, fmt.Errorf("smi: destination %d outside %v", destination, comm)
	}
	if ep.inUseSend {
		return nil, fmt.Errorf("smi: rank %d port %d already has an open send channel", x.rank, port)
	}
	dstGlobal := comm.Global(destination)
	if ep.spec.Mode.halfDuplex() {
		// The reverse direction of a credited or streaming port carries
		// the receiver's grants.
		if ep.inUseRecv {
			return nil, fmt.Errorf("smi: rank %d port %d: credited and streaming ports are half-duplex", x.rank, port)
		}
		if dstGlobal == x.rank {
			return nil, fmt.Errorf("smi: rank %d port %d: credited and streaming channels cannot target their own rank", x.rank, port)
		}
		ep.inUseRecv = true
	}
	ep.inUseSend = true
	raw, rendezvous, epp := ep.spec.rawPath(dt, count)
	batch := ep.spec.StreamBatch
	if ep.spec.Mode == ModeCircuit {
		batch = (count + epp - 1) / epp
	}
	st := ep.send
	if st == nil {
		st = new(sendState)
		ep.send = st
	}
	*st = sendState{
		x: x, ep: ep, gen: st.gen + 1, dt: dt, epp: epp, vec: ep.spec.VecWidth,
		count: count, dst: dstGlobal, port: port, patience: x.resolveOpts(opts),
		credited: ep.spec.Mode == ModeCredited, credits: ep.spec.BufferElems,
		raw: raw, batch: batch, rvDone: !rendezvous,
	}
	return &SendChannel{s: st, gen: st.gen}, nil
}

// state returns the channel's state, or panics if the channel has
// closed and its port has been reopened since.
func (ch *SendChannel) state() *sendState {
	if ch.gen != ch.s.gen {
		panic(fmt.Sprintf("smi: push beyond message size on port %d: the channel closed and the port was reopened", ch.s.port))
	}
	return ch.s
}

// rawPath derives how a count-element message of type dt travels on the
// port: whether it uses headerless raw words, whether a rendezvous gates
// it, and the elements per wire word that follows from the first. A
// streaming port switches over at the endpoint buffer size — a message
// that fits goes eager on the plain packet path.
func (s *PortSpec) rawPath(dt Datatype, count int) (raw, rendezvous bool, epp int) {
	rendezvous = s.Mode == ModeStreaming && count > s.BufferElems
	raw = s.Mode == ModeCircuit || rendezvous
	if raw {
		return raw, rendezvous, packet.RawElemsPerPacket(dt)
	}
	return raw, rendezvous, dt.ElemsPerPacket()
}

// opDeadline converts the channel's patience into an absolute deadline
// for one operation starting now.
func (ch *sendState) opDeadline() int64 {
	if ch.patience <= 0 {
		return sim.Never
	}
	return ch.x.Now() + ch.patience
}

// Push streams one element (as raw bits) into the channel. It blocks —
// consuming simulated cycles — while the endpoint buffer is full, so a
// push "does not return before the data element has been safely sent to
// the network" (§3.1.1). Pushing more than count elements panics (a
// programming error); a runtime failure (deadline expiry, unreachable
// peer, failed cluster) panics with the ChannelError that PushE would
// return.
func (ch *SendChannel) Push(bits uint64) {
	if err := ch.PushE(bits); err != nil {
		panic(err)
	}
}

// PushE is Push with a recoverable error surface: runtime failures are
// returned as a *ChannelError (Timeout, PeerUnreachable, ClusterFailed)
// instead of panicking. A failed push consumes no element: the channel
// state is unchanged and the same element may be retried. Pushing more
// than count elements still panics — that is a programming error.
func (ch *SendChannel) PushE(bits uint64) error {
	st := ch.state()
	s := st.x.pushPath(st)
	s.one[0] = bits
	_, err := ch.PushN(s.one[:])
	return err
}

// PushN pushes every element of bits in order, returning how many were
// consumed and the first error. On error the remaining elements
// (bits[n:]) may be retried. The whole slice is one engine-run loop (see
// sendPath), so a message costs one coroutine round trip, not one or two
// per packet. On a Streaming port this is the intended bulk entry point:
// the whole slice rides one rendezvous.
func (ch *SendChannel) PushN(bits []uint64) (int, error) {
	st := ch.state()
	s := st.x.pushPath(st)
	s.beginBits(bits)
	st.x.proc.Run(s)
	return s.end()
}

// sendPhase is where a sendPath stands within the current element.
type sendPhase uint8

const (
	sendElem       sendPhase = iota // the next element starts
	sendRendezvous                  // streaming handshake legs if due, then stage the element
	sendFlush                       // element staged, packet due: credit gate, fragment header, pipeline
	sendPayload                     // pipeline cycles paid: push the packet
	sendClose                       // packet pushed a cycle ago: the element completes
)

// sendPath is the send channel's packet data path, run by the engine as
// one loop per PushN (sim.Proc.Run). Per element it makes the checks a
// push makes on entry (message size, runtimeErr, the deadline), stages
// the element and, once a packet is full or the message complete, flushes
// it: credit gate, then the fragment header if one is due, then the
// payload, charging the cycles the application pipeline spent producing
// its elements — a kernel pushing one element per cycle (VecWidth 1)
// pays one cycle per element, a vectorized kernel proportionally less.
// Every FIFO operation and its cycle is the one a blocking push would
// make: a wait is a cancellable wait with the element's deadline, and
// each push or pop is followed by one cycle. Every leg is guarded by its
// own state (rvSent, rvDone, credits, fragLeft), so a failed element is
// un-staged and a retry resumes exactly where the last attempt stopped.
// The state lives only for one bulk call, so each Ctx holds one path,
// pointed at the channel of the call in progress.
type sendPath struct {
	bulk
	ch    *sendState
	phase sendPhase
}

// bulk is the progress of the bulk call a channel path runs: its
// elements, how many are done, the current element's deadline and the
// call's error.
type bulk struct {
	xs       elems
	i        int
	deadline int64
	err      error
	bits     bitsElems // a raw-bits call's elements
	one      [1]uint64 // a one-element call's element
}

// begin starts a call over xs, beginBits one over raw bits; end reports
// how many elements the call consumed or delivered, and its error.
func (b *bulk) begin(xs elems) { b.xs, b.i, b.err = xs, 0, nil }

func (b *bulk) beginBits(vs []uint64) {
	b.bits.vs = vs
	b.begin(&b.bits)
}

func (b *bulk) end() (int, error) {
	n, err := b.i, b.err
	b.xs, b.err, b.bits.vs = nil, nil, nil
	return n, err
}

func (s *sendPath) Step(_ *sim.Proc, res sim.WaitResult) sim.Wait {
	ch := s.ch
	if res != sim.WaitOK {
		return s.fail(ch.x.waitErr(res, "push", ch.port, ch.dst))
	}
	for {
		switch s.phase {
		case sendElem:
			if s.i == s.xs.len() {
				return sim.Wait{}
			}
			if ch.sent >= ch.count {
				panic(fmt.Sprintf("smi: push beyond message size %d on port %d", ch.count, ch.port))
			}
			if err := ch.x.peerErr("push", ch.port, ch.dst, &ch.reached); err != nil {
				return s.fail(err)
			}
			s.deadline = ch.opDeadline()
			s.phase = sendRendezvous
		case sendRendezvous:
			// The receiver must commit buffer before any payload enters
			// the shared transport.
			if !ch.rvDone && !ch.rvSent {
				if !ch.ep.appSend.CanPush() {
					return sim.Wait{Space: ch.ep.appSend, Deadline: s.deadline}
				}
				ch.ep.appSend.TryPush(packet.EncodeCtl(uint16(ch.x.rank), uint16(ch.dst), uint8(ch.port),
					packet.Ctl{Kind: packet.CtlRequest, Elems: uint32(ch.count)}))
				ch.rvSent = true
				return sim.Wait{Cycles: 1}
			}
			if !ch.rvDone {
				grant, ok := ch.ep.appRecv.TryPop()
				if !ok {
					return sim.Wait{Data: ch.ep.appRecv, Deadline: s.deadline}
				}
				if n := ch.grantRoom(grant); n != ch.count {
					panic(fmt.Sprintf("smi: rank %d port %d: stream grant of %d elements for a %d-element message", ch.x.rank, ch.port, n, ch.count))
				}
				ch.rvDone = true
				return sim.Wait{Cycles: 1}
			}
			if ch.raw {
				ch.cur.PutRawElem(ch.n, ch.dt, s.xs.get(s.i))
			} else {
				ch.cur.PutElem(ch.n, ch.dt, s.xs.get(s.i))
			}
			ch.n++
			ch.sent++
			if ch.n < ch.epp && ch.sent < ch.count {
				s.i++
				s.phase = sendElem
				continue
			}
			s.phase = sendFlush
		case sendFlush:
			if ch.credited && ch.credits < ch.n {
				// Wait until the receiver has granted room for this packet,
				// so the data never queues in the shared transport.
				grant, ok := ch.ep.appRecv.TryPop()
				if !ok {
					return sim.Wait{Data: ch.ep.appRecv, Deadline: s.deadline}
				}
				ch.credits += ch.grantRoom(grant)
				return sim.Wait{Cycles: 1}
			}
			if ch.raw && ch.fragLeft == 0 {
				// The OpStream header pins the route for the fragment's word
				// train: one header amortized over up to batch full words.
				if !ch.ep.appSend.CanPush() {
					return sim.Wait{Space: ch.ep.appSend, Deadline: s.deadline}
				}
				frag := ch.nextFrag()
				ch.ep.appSend.TryPush(packet.EncodeStreamFrag(uint16(ch.x.rank), uint16(ch.dst), uint8(ch.port), frag))
				ch.seq++
				ch.fragLeft = int(frag.Words)
				return sim.Wait{Cycles: 1}
			}
			s.phase = sendPayload
			if cycles := int64((ch.n + ch.vec - 1) / ch.vec); cycles > 1 {
				return sim.Wait{Cycles: cycles - 1}
			}
		case sendPayload:
			if !ch.ep.appSend.CanPush() {
				return sim.Wait{Space: ch.ep.appSend, Deadline: s.deadline}
			}
			ch.cur.Src = uint16(ch.x.rank)
			ch.cur.Dst = uint16(ch.dst)
			ch.cur.Port = uint8(ch.port)
			ch.cur.Op = packet.OpData
			if ch.raw {
				ch.cur.Op = packet.OpRaw
			}
			ch.cur.Count = uint8(ch.n)
			ch.ep.appSend.TryPush(ch.cur)
			if ch.credited {
				ch.credits -= ch.n
			}
			if ch.raw {
				ch.fragLeft--
			}
			ch.cur = packet.Packet{}
			ch.n = 0
			s.phase = sendClose
			return sim.Wait{Cycles: 1}
		case sendClose:
			if ch.sent == ch.count {
				ch.ep.inUseSend = false // channel implicitly closed
				if ch.ep.spec.Mode.halfDuplex() {
					ch.ep.inUseRecv = false
				}
			}
			s.i++
			s.phase = sendElem
		}
	}
}

// fail ends the loop with err, un-staging the current element if it was
// staged; a retry re-stages it.
func (s *sendPath) fail(err error) sim.Wait {
	if s.phase == sendFlush || s.phase == sendPayload {
		s.ch.n--
		s.ch.sent--
	}
	s.phase = sendElem
	s.err = err
	return sim.Wait{}
}

// grantRoom validates a grant from the receiver — a credit top-up or
// the rendezvous grant — and returns the room in elements it hands over.
func (ch *sendState) grantRoom(grant packet.Packet) int {
	if grant.Op != packet.OpCtl || int(grant.Src) != ch.dst {
		panic(fmt.Sprintf("smi: rank %d port %d: expected a grant from %d, got %v",
			ch.x.rank, ch.port, ch.dst, grant))
	}
	c := packet.DecodeCtl(grant)
	if c.Kind != packet.CtlGrant {
		panic(fmt.Sprintf("smi: rank %d port %d: request %+v from %d received where a grant was due",
			ch.x.rank, ch.port, c, ch.dst))
	}
	return int(c.Elems)
}

// nextFrag describes the fragment that starts with the staged word.
func (ch *sendState) nextFrag() packet.StreamFrag {
	flushed := ch.sent - ch.n // elements already on the wire
	elems := ch.count - flushed
	if max := ch.batch * ch.epp; elems > max {
		elems = max
	}
	return packet.StreamFrag{
		Seq:   ch.seq,
		Words: uint32((elems + ch.epp - 1) / ch.epp),
		Elems: uint32(elems),
		Last:  flushed+elems == ch.count,
	}
}

// RecvChannel is a transient point-to-point receive channel
// (SMI_Open_recv_channel). The channel closes implicitly after count
// elements have been popped. Like SendChannel it is a handle on state
// in the port's endpoint slot: a handle used after its channel closed
// panics as a pop beyond the message size does, also once the port has
// been reopened.
type RecvChannel struct {
	s   *recvState
	gen uint32
}

// recvState is the state of the receive channel open on a port, kept in
// the port's endpoint slot (endpoint.recv) as sendState is.
type recvState struct {
	x   *Ctx
	ep  *endpoint
	gen uint32 // generation of the open the state belongs to
	vec int

	count    int
	received int
	src      int // expected global source rank
	port     int

	// patience is the per-operation deadline in cycles (0 = none).
	patience int64

	cur  packet.Packet
	have int // unread elements in cur
	pos  int // next element index in cur

	// dt, credited and reached share one word, which keeps the struct
	// small. Credit-based flow control: elements drained since the last
	// grant, the batch size at which grants are sent, and the total
	// granted so far. Total grants are capped at count minus the initial
	// credit so the sender's budget is exactly count elements and no
	// stale credits outlive the channel.
	dt         Datatype
	credited   bool
	reached    uint32 // route epoch at which src was last found reachable (see peerErr)
	freed      int
	grantBatch int
	granted    int

	// Raw-word state (see SendChannel): the rendezvous handshake, the
	// expected fragment sequence number, and the words/elements left in
	// the fragment whose header was last consumed.
	raw       bool
	rvSeen    bool // rendezvous request consumed
	rvDone    bool // grant pushed, or none needed
	seq       uint32
	fragWords int
	fragElems int
}

// OpenRecvChannel opens a transient channel to receive count elements of
// type dt from rank source (relative to comm) on the given port. Like
// OpenSendChannel it keeps the channel in the port's endpoint slot and
// allocates only its 16-byte handle, which stays valid until the
// channel closes after count elements. Options (e.g. WithDeadline)
// bound the blocking behavior of subsequent operations.
func (x *Ctx) OpenRecvChannel(count int, dt Datatype, source, port int, comm Comm, opts ...ChannelOption) (*RecvChannel, error) {
	ep, err := x.endpointFor(port, P2P, dt, count, comm)
	if err != nil {
		return nil, err
	}
	if source < 0 || source >= comm.size {
		return nil, fmt.Errorf("smi: source %d outside %v", source, comm)
	}
	if ep.inUseRecv {
		return nil, fmt.Errorf("smi: rank %d port %d already has an open recv channel", x.rank, port)
	}
	srcGlobal := comm.Global(source)
	if ep.spec.Mode.halfDuplex() {
		if ep.inUseSend {
			return nil, fmt.Errorf("smi: rank %d port %d: credited and streaming ports are half-duplex", x.rank, port)
		}
		if srcGlobal == x.rank {
			return nil, fmt.Errorf("smi: rank %d port %d: credited and streaming channels cannot target their own rank", x.rank, port)
		}
		ep.inUseSend = true
	}
	raw, rendezvous, _ := ep.spec.rawPath(dt, count)
	st := ep.recv
	if st == nil {
		st = new(recvState)
		ep.recv = st
	}
	*st = recvState{
		x: x, ep: ep, gen: st.gen + 1, dt: dt, vec: ep.spec.VecWidth,
		count: count, src: srcGlobal, port: port, patience: x.resolveOpts(opts),
		raw: raw, rvDone: !rendezvous,
	}
	if ep.spec.Mode == ModeCredited {
		st.credited = true
		st.grantBatch = max(ep.spec.BufferElems/2, dt.ElemsPerPacket())
	}
	ep.inUseRecv = true
	return &RecvChannel{s: st, gen: st.gen}, nil
}

// state returns the channel's state, or panics if the channel has
// closed and its port has been reopened since.
func (ch *RecvChannel) state() *recvState {
	if ch.gen != ch.s.gen {
		panic(fmt.Sprintf("smi: pop beyond message size on port %d: the channel closed and the port was reopened", ch.s.port))
	}
	return ch.s
}

// opDeadline converts the channel's patience into an absolute deadline
// for one operation starting now.
func (ch *recvState) opDeadline() int64 {
	if ch.patience <= 0 {
		return sim.Never
	}
	return ch.x.Now() + ch.patience
}

// Pop blocks until the next element arrives and returns its raw bits.
// Popping past count elements panics, as does receiving a packet from an
// unexpected source (a mismatched program). A runtime failure panics
// with the ChannelError that PopE would return.
func (ch *RecvChannel) Pop() uint64 {
	bits, err := ch.PopE()
	if err != nil {
		panic(err)
	}
	return bits
}

// PopE is Pop with a recoverable error surface: runtime failures are
// returned as a *ChannelError instead of panicking. A failed pop
// consumes no element — the same element is delivered by a successful
// retry. Popping past count elements and protocol violations (wrong
// source, wrong op) still panic: those are programming errors.
func (ch *RecvChannel) PopE() (uint64, error) {
	st := ch.state()
	s := st.x.popPath(st)
	_, err := ch.PopN(s.one[:])
	return s.one[0], err
}

// PopN fills bits in order, returning how many elements were delivered
// and the first error. On error the remaining elements (bits[n:]) may be
// retried. Like PushN, the whole slice is one engine-run loop (see
// recvPath).
func (ch *RecvChannel) PopN(bits []uint64) (int, error) {
	st := ch.state()
	s := st.x.popPath(st)
	s.beginBits(bits)
	st.x.proc.Run(s)
	return s.end()
}

// recvPhase is where a recvPath stands within the current element.
type recvPhase uint8

const (
	recvElem   recvPhase = iota // the next element starts
	recvFetch                   // no unread element: fetch the next packet
	recvTake                    // an unread element is in cur
	recvCredit                  // element taken, a credit grant is due
	recvClose                   // element taken, grant (if any) pushed: deliver it
)

// recvPath is the receive channel's packet data path, run by the engine
// as one loop per PopN (sim.Proc.Run); like sendPath, one per Ctx. Per
// element it makes the checks a pop makes on entry and, with no unread
// element left, fetches the next data packet or raw word: the first
// fetch of a rendezvous message completes the receiver half of the
// handshake (consume the request, push the grant), and on the raw path a
// fragment header is consumed and validated whenever the previous
// fragment is exhausted. The fetch is
// "pop, then charge ⌈count/vec⌉ cycles" — the cycles a pipelined
// consumer spends draining the packet. A credited receiver then returns
// drained buffer space to the sender in batches. Each leg is guarded by
// its own state, so a failed wait resumes exactly where it left off
// without consuming or duplicating protocol packets, and a failed grant
// un-takes its element. Malformed traffic (wrong op, wrong source, empty
// packets, a header that disagrees with the channel) panics — a
// mismatched program is a bug, not a runtime condition.
type recvPath struct {
	bulk
	ch    *recvState
	phase recvPhase
	took  uint64 // the element taken, delivered when it completes
}

func (s *recvPath) Step(_ *sim.Proc, res sim.WaitResult) sim.Wait {
	ch := s.ch
	if res != sim.WaitOK {
		return s.fail(ch.x.waitErr(res, "pop", ch.port, ch.src))
	}
	for {
		switch s.phase {
		case recvElem:
			if s.i == s.xs.len() {
				return sim.Wait{}
			}
			if ch.received >= ch.count {
				panic(fmt.Sprintf("smi: pop beyond message size %d on port %d", ch.count, ch.port))
			}
			if err := ch.x.peerErr("pop", ch.port, ch.src, &ch.reached); err != nil {
				return s.fail(err)
			}
			s.deadline = ch.opDeadline()
			s.phase = recvFetch
			if ch.have > 0 {
				s.phase = recvTake
			}
		case recvFetch:
			switch {
			case !ch.rvDone && !ch.rvSeen:
				req, ok := ch.ep.appRecv.TryPop()
				if !ok {
					return sim.Wait{Data: ch.ep.appRecv, Deadline: s.deadline}
				}
				ch.checkRequest(req)
				ch.rvSeen = true
			case !ch.rvDone:
				// Grant the whole message: the rendezvous guarantees this
				// receiver is parked on the channel draining it, which is
				// what bounds the data's residence in the shared transport.
				if !ch.ep.appSend.CanPush() {
					return sim.Wait{Space: ch.ep.appSend, Deadline: s.deadline}
				}
				ch.ep.appSend.TryPush(ch.grant(ch.count))
				ch.rvDone = true
			case ch.raw && ch.fragWords == 0:
				hdr, ok := ch.ep.appRecv.TryPop()
				if !ok {
					return sim.Wait{Data: ch.ep.appRecv, Deadline: s.deadline}
				}
				ch.openFrag(hdr)
			default:
				pkt, ok := ch.ep.appRecv.TryPop()
				if !ok {
					return sim.Wait{Data: ch.ep.appRecv, Deadline: s.deadline}
				}
				ch.checkData(pkt)
				ch.cur = pkt
				ch.have = int(pkt.Count)
				ch.pos = 0
				s.phase = recvTake
				return sim.Wait{Cycles: int64((int(pkt.Count) + ch.vec - 1) / ch.vec)}
			}
			return sim.Wait{Cycles: 1}
		case recvTake:
			if ch.raw {
				s.took = ch.cur.RawElem(ch.pos, ch.dt)
			} else {
				s.took = ch.cur.Elem(ch.pos, ch.dt)
			}
			ch.pos++
			ch.have--
			ch.received++
			s.phase = recvClose
			if ch.credited {
				ch.freed++
				if ch.freed >= ch.grantBatch {
					s.phase = recvCredit
				}
			}
		case recvCredit:
			// Return drained buffer space to the sender, never granting
			// more than the sender can still use.
			avail := ch.count - ch.ep.spec.BufferElems - ch.granted
			if avail <= 0 {
				ch.freed = 0 // the sender's budget already covers the message
				s.phase = recvClose
				continue
			}
			if !ch.ep.appSend.CanPush() {
				return sim.Wait{Space: ch.ep.appSend, Deadline: s.deadline}
			}
			n := min(ch.freed, avail)
			ch.ep.appSend.TryPush(ch.grant(n))
			ch.granted += n
			ch.freed = 0
			s.phase = recvClose
			return sim.Wait{Cycles: 1}
		case recvClose:
			if ch.received == ch.count {
				if ch.ep.spec.Mode.halfDuplex() {
					ch.ep.inUseSend = false
				}
				ch.ep.inUseRecv = false // channel implicitly closed
			}
			s.xs.set(s.i, s.took)
			s.i++
			s.phase = recvElem
		}
	}
}

// fail ends the loop with err, un-taking an element whose credit grant
// failed; cur still holds it, so a retry re-delivers it and re-attempts
// the grant.
func (s *recvPath) fail(err error) sim.Wait {
	if ch := s.ch; s.phase == recvCredit {
		ch.freed--
		ch.received--
		ch.have++
		ch.pos--
	}
	s.phase = recvElem
	s.err = err
	return sim.Wait{}
}

// grant builds the word that hands the sender room for n elements: a
// credit top-up, or the rendezvous grant of the whole message.
func (ch *recvState) grant(n int) packet.Packet {
	return packet.EncodeCtl(uint16(ch.x.rank), uint16(ch.src), uint8(ch.port), packet.Ctl{Kind: packet.CtlGrant, Elems: uint32(n)})
}

// checkRequest validates the sender's rendezvous request.
func (ch *recvState) checkRequest(req packet.Packet) {
	if req.Op != packet.OpCtl || int(req.Src) != ch.src {
		panic(fmt.Sprintf("smi: rank %d port %d: expected stream request from %d, got %v",
			ch.x.rank, ch.port, ch.src, req))
	}
	if c := packet.DecodeCtl(req); c.Kind != packet.CtlRequest || int(c.Elems) != ch.count {
		panic(fmt.Sprintf("smi: rank %d port %d: stream request %+v mismatches %d-element channel",
			ch.x.rank, ch.port, c, ch.count))
	}
}

// openFrag validates a fragment header and opens its word budget.
func (ch *recvState) openFrag(hdr packet.Packet) {
	if hdr.Op != packet.OpStream || int(hdr.Src) != ch.src {
		panic(fmt.Sprintf("smi: rank %d port %d: expected stream fragment from %d, got %v",
			ch.x.rank, ch.port, ch.src, hdr))
	}
	f := packet.DecodeStreamFrag(hdr)
	if f.Seq != ch.seq {
		panic(fmt.Sprintf("smi: rank %d port %d: stream fragment seq %d, expected %d",
			ch.x.rank, ch.port, f.Seq, ch.seq))
	}
	if f.Words == 0 || f.Elems == 0 || int(f.Elems) > ch.count-ch.received {
		panic(fmt.Sprintf("smi: rank %d port %d: malformed stream fragment %+v", ch.x.rank, ch.port, f))
	}
	if f.Last != (ch.received+int(f.Elems) == ch.count) {
		panic(fmt.Sprintf("smi: rank %d port %d: stream fragment %+v mislabels the message end",
			ch.x.rank, ch.port, f))
	}
	ch.seq++
	ch.fragWords = int(f.Words)
	ch.fragElems = int(f.Elems)
}

// checkData validates a data packet or raw word and, on the raw path,
// charges it to the open fragment.
func (ch *recvState) checkData(pkt packet.Packet) {
	if ch.raw {
		// A raw word has no header of its own: the fragment header vouched
		// for its source, and the fragment's budget bounds it.
		if pkt.Op != packet.OpRaw {
			panic(fmt.Sprintf("smi: rank %d port %d: unexpected %v packet inside a stream fragment", ch.x.rank, ch.port, pkt.Op))
		}
		if pkt.Count == 0 || int(pkt.Count) > ch.fragElems {
			panic(fmt.Sprintf("smi: rank %d port %d: stream word carries %d elements, fragment has %d left",
				ch.x.rank, ch.port, pkt.Count, ch.fragElems))
		}
		ch.fragWords--
		ch.fragElems -= int(pkt.Count)
		if ch.fragWords == 0 && ch.fragElems != 0 {
			panic(fmt.Sprintf("smi: rank %d port %d: stream fragment ended with %d elements missing",
				ch.x.rank, ch.port, ch.fragElems))
		}
		return
	}
	if pkt.Op != packet.OpData {
		panic(fmt.Sprintf("smi: rank %d port %d: unexpected %v packet on recv channel", ch.x.rank, ch.port, pkt.Op))
	}
	if int(pkt.Src) != ch.src {
		panic(fmt.Sprintf("smi: rank %d port %d: packet from rank %d, expected %d", ch.x.rank, ch.port, pkt.Src, ch.src))
	}
	if pkt.Count == 0 {
		panic(fmt.Sprintf("smi: rank %d port %d: empty data packet", ch.x.rank, ch.port))
	}
}
