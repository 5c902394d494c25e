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
type SendChannel struct {
	x   *Ctx
	ep  *endpoint
	dt  Datatype
	epp int // elements per packet
	vec int // application datapath width, elements per cycle

	count int
	sent  int
	dst   int // global destination rank
	port  int

	// patience is the per-operation deadline in cycles (0 = none): each
	// PushE call must complete within patience cycles of starting.
	patience int64

	cur packet.Packet
	n   int // elements in cur

	// Credit-based flow control state (ModeCredited): remaining elements
	// the receiver has granted.
	credited bool
	credits  int

	// Raw-word state. A raw message travels as headerless 32-byte OpRaw
	// words behind OpStream fragment headers of up to batch words each:
	// circuit ports always (batch = the whole message, so one fragment),
	// streaming ports for messages above BufferElems (batch =
	// StreamBatch), which additionally complete a rendezvous first. Both
	// peers derive raw, batch and the rendezvous from the port's mode and
	// the declared count, so they agree without negotiating.
	raw      bool
	batch    int    // fragment size in raw words
	rvSent   bool   // rendezvous request pushed
	rvDone   bool   // rendezvous grant received, or none needed
	seq      uint32 // next fragment sequence number
	fragLeft int    // raw words left in the fragment the last header opened
}

// OpenSendChannel opens a transient channel to stream count elements of
// type dt to rank destination (relative to comm) on the given port.
// Opening is a zero-overhead operation: it only records where data
// should be sent (§3.3). Options (e.g. WithDeadline) bound the blocking
// behavior of subsequent operations.
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
		// The reverse direction of a credited port carries the credits;
		// of a streaming port, the rendezvous handshake.
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
	o := x.resolveOpts(opts)
	return &SendChannel{
		x: x, ep: ep, dt: dt, epp: epp, vec: ep.spec.VecWidth,
		count: count, dst: dstGlobal, port: port, patience: o.patience,
		credited: ep.spec.Mode == ModeCredited, credits: ep.spec.BufferElems,
		raw: raw, batch: batch, rvDone: !rendezvous,
	}, nil
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
func (ch *SendChannel) opDeadline() int64 {
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
	if ch.sent >= ch.count {
		panic(fmt.Sprintf("smi: push beyond message size %d on port %d", ch.count, ch.port))
	}
	if err := ch.x.runtimeErr("push", ch.port, ch.dst); err != nil {
		return err
	}
	deadline := ch.opDeadline()
	if !ch.rvDone {
		// Rendezvous: the receiver must commit buffer before any payload
		// enters the shared transport.
		if err := ch.rendezvousE(deadline); err != nil {
			return err
		}
	}
	if ch.raw {
		ch.cur.PutRawElem(ch.n, ch.dt, bits)
	} else {
		ch.cur.PutElem(ch.n, ch.dt, bits)
	}
	ch.n++
	ch.sent++
	if ch.n == ch.epp || ch.sent == ch.count {
		if err := ch.flushE(deadline); err != nil {
			// Roll back the staged element; a retry re-stages it.
			ch.n--
			ch.sent--
			return err
		}
	}
	if ch.sent == ch.count {
		ch.ep.inUseSend = false // channel implicitly closed
		if ch.ep.spec.Mode.halfDuplex() {
			ch.ep.inUseRecv = false
		}
	}
	return nil
}

// rendezvousE performs the sender half of the streaming handshake: a
// request announcing the message, then a blocking wait for the
// receiver's grant. The two legs are guarded separately so a failed
// (deadline-expired) wait for the grant does not duplicate the request
// on retry.
func (ch *SendChannel) rendezvousE(deadline int64) error {
	if !ch.rvSent {
		req := packet.EncodeStreamCtl(uint16(ch.x.rank), uint16(ch.dst), uint8(ch.port),
			packet.StreamCtl{Kind: packet.StreamReq, Elems: uint32(ch.count)})
		if res := ch.ep.appSend.PushProcE(ch.x.proc, req, deadline); res != sim.WaitOK {
			return ch.x.waitErr(res, "push", ch.port, ch.dst)
		}
		ch.rvSent = true
	}
	grant, res := ch.ep.appRecv.PopProcE(ch.x.proc, deadline)
	if res != sim.WaitOK {
		return ch.x.waitErr(res, "push", ch.port, ch.dst)
	}
	if grant.Op != packet.OpStreamCtl || int(grant.Src) != ch.dst {
		panic(fmt.Sprintf("smi: rank %d port %d: expected stream grant from %d, got %v",
			ch.x.rank, ch.port, ch.dst, grant))
	}
	if c := packet.DecodeStreamCtl(grant); c.Kind != packet.StreamGrant || int(c.Elems) != ch.count {
		panic(fmt.Sprintf("smi: rank %d port %d: malformed stream grant %+v for %d-element message",
			ch.x.rank, ch.port, c, ch.count))
	}
	ch.rvDone = true
	return nil
}

// PushN pushes every element of bits in order, returning how many were
// consumed and the first error. On error the remaining elements
// (bits[n:]) may be retried. On a Streaming port this is the intended
// bulk entry point: the whole slice rides one rendezvous.
func (ch *SendChannel) PushN(bits []uint64) (int, error) {
	for i, b := range bits {
		if err := ch.PushE(b); err != nil {
			return i, err
		}
	}
	return len(bits), nil
}

// flushE emits the staged packet or raw word: credit gate, then the
// fragment header if one is due, then the payload, charging the cycles
// the application pipeline spent producing its elements — a kernel
// pushing one element per cycle (VecWidth 1) pays one cycle per element,
// a vectorized kernel proportionally less. Every leg is guarded by its
// own state (credits, fragLeft), so after a failure the staged payload is
// preserved and a retry resumes exactly where the last attempt stopped.
func (ch *SendChannel) flushE(deadline int64) error {
	if ch.credited {
		// Block until the receiver has granted room for this packet, so
		// the data never queues in the shared transport.
		for ch.credits < ch.n {
			grant, res := ch.ep.appRecv.PopProcE(ch.x.proc, deadline)
			if res != sim.WaitOK {
				return ch.x.waitErr(res, "push", ch.port, ch.dst)
			}
			if grant.Op != packet.OpCredit || int(grant.Src) != ch.dst {
				panic(fmt.Sprintf("smi: rank %d port %d: expected credit from %d, got %v",
					ch.x.rank, ch.port, ch.dst, grant))
			}
			ch.credits += int(packet.DecodeCreditElems(grant))
		}
	}
	if ch.raw && ch.fragLeft == 0 {
		// The OpStream header pins the route for the fragment's word train:
		// one header amortized over up to batch full 32-byte words.
		flushed := ch.sent - ch.n // elements already on the wire
		elems := ch.count - flushed
		if max := ch.batch * ch.epp; elems > max {
			elems = max
		}
		frag := packet.StreamFrag{
			Seq:   ch.seq,
			Words: uint32((elems + ch.epp - 1) / ch.epp),
			Elems: uint32(elems),
			Last:  flushed+elems == ch.count,
		}
		hdr := packet.EncodeStreamFrag(uint16(ch.x.rank), uint16(ch.dst), uint8(ch.port), frag)
		if res := ch.ep.appSend.PushProcE(ch.x.proc, hdr, deadline); res != sim.WaitOK {
			return ch.x.waitErr(res, "push", ch.port, ch.dst)
		}
		ch.seq++
		ch.fragLeft = int(frag.Words)
	}
	ch.cur.Src = uint16(ch.x.rank)
	ch.cur.Dst = uint16(ch.dst)
	ch.cur.Port = uint8(ch.port)
	ch.cur.Op = packet.OpData
	if ch.raw {
		ch.cur.Op = packet.OpRaw
	}
	ch.cur.Count = uint8(ch.n)
	cycles := int64((ch.n + ch.vec - 1) / ch.vec)
	if cycles > 1 {
		ch.x.proc.Sleep(cycles - 1)
	}
	if res := ch.ep.appSend.PushProcE(ch.x.proc, ch.cur, deadline); res != sim.WaitOK {
		return ch.x.waitErr(res, "push", ch.port, ch.dst)
	}
	if ch.credited {
		ch.credits -= ch.n
	}
	if ch.raw {
		ch.fragLeft--
	}
	ch.cur = packet.Packet{}
	ch.n = 0
	return nil
}

// RecvChannel is a transient point-to-point receive channel
// (SMI_Open_recv_channel). The channel closes implicitly after count
// elements have been popped.
type RecvChannel struct {
	x   *Ctx
	ep  *endpoint
	dt  Datatype
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

	// Credit-based flow control state: elements drained since the last
	// grant, the batch size at which grants are sent, and the total
	// granted so far. Total grants are capped at count minus the initial
	// credit so the sender's budget is exactly count elements and no
	// stale credits outlive the channel.
	credited   bool
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
// type dt from rank source (relative to comm) on the given port. Options
// (e.g. WithDeadline) bound the blocking behavior of subsequent
// operations.
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
	o := x.resolveOpts(opts)
	raw, rendezvous, _ := ep.spec.rawPath(dt, count)
	ch := &RecvChannel{
		x: x, ep: ep, dt: dt, vec: ep.spec.VecWidth,
		count: count, src: srcGlobal, port: port, patience: o.patience,
		raw: raw, rvDone: !rendezvous,
	}
	if ep.spec.Mode.halfDuplex() {
		if ep.inUseSend {
			return nil, fmt.Errorf("smi: rank %d port %d: credited and streaming ports are half-duplex", x.rank, port)
		}
		if srcGlobal == x.rank {
			return nil, fmt.Errorf("smi: rank %d port %d: credited and streaming channels cannot target their own rank", x.rank, port)
		}
		ep.inUseSend = true
	}
	if ep.spec.Mode == ModeCredited {
		ch.credited = true
		ch.grantBatch = ep.spec.BufferElems / 2
		epp := dt.ElemsPerPacket()
		if ch.grantBatch < epp {
			ch.grantBatch = epp
		}
	}
	ep.inUseRecv = true
	return ch, nil
}

// opDeadline converts the channel's patience into an absolute deadline
// for one operation starting now.
func (ch *RecvChannel) opDeadline() int64 {
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
	if ch.received >= ch.count {
		panic(fmt.Sprintf("smi: pop beyond message size %d on port %d", ch.count, ch.port))
	}
	if err := ch.x.runtimeErr("pop", ch.port, ch.src); err != nil {
		return 0, err
	}
	deadline := ch.opDeadline()
	if ch.have == 0 {
		if err := ch.fetchE(deadline); err != nil {
			return 0, err
		}
	}
	var bits uint64
	if ch.raw {
		bits = ch.cur.RawElem(ch.pos, ch.dt)
	} else {
		bits = ch.cur.Elem(ch.pos, ch.dt)
	}
	ch.pos++
	ch.have--
	ch.received++
	if ch.credited {
		ch.freed++
		if ch.freed >= ch.grantBatch {
			if err := ch.sendCreditE(deadline); err != nil {
				// Roll back the consumed element; cur still holds it, so
				// a retry re-delivers it and re-attempts the grant.
				ch.freed--
				ch.received--
				ch.have++
				ch.pos--
				return 0, err
			}
		}
	}
	if ch.received == ch.count {
		if ch.ep.spec.Mode.halfDuplex() {
			ch.ep.inUseSend = false
		}
		ch.ep.inUseRecv = false // channel implicitly closed
	}
	return bits, nil
}

// PopN fills bits in order, returning how many elements were delivered
// and the first error. On error the remaining elements (bits[n:]) may be
// retried.
func (ch *RecvChannel) PopN(bits []uint64) (int, error) {
	for i := range bits {
		b, err := ch.PopE()
		if err != nil {
			return i, err
		}
		bits[i] = b
	}
	return len(bits), nil
}

// sendCreditE returns drained buffer space to the sender, never granting
// more than the sender can still use. Channel state is only updated
// after the grant packet is accepted, so a failed grant can be retried.
func (ch *RecvChannel) sendCreditE(deadline int64) error {
	avail := ch.count - ch.ep.spec.BufferElems - ch.granted
	if avail <= 0 {
		ch.freed = 0 // the sender's budget already covers the message
		return nil
	}
	n := ch.freed
	if n > avail {
		n = avail
	}
	grant := packet.Packet{
		Src: uint16(ch.x.rank), Dst: uint16(ch.src), Port: uint8(ch.port),
		Op: packet.OpCredit,
	}
	packet.EncodeCreditElems(&grant, uint32(n))
	if res := ch.ep.appSend.PushProcE(ch.x.proc, grant, deadline); res != sim.WaitOK {
		return ch.x.waitErr(res, "pop", ch.port, ch.src)
	}
	ch.granted += n
	ch.freed = 0
	return nil
}

// fetchE pops the next data packet or raw word from the endpoint. The
// first call on a rendezvous message completes the receiver half of the
// handshake (consume the request, push the grant); on the raw path a
// fragment header is consumed and validated whenever the previous
// fragment is exhausted. Each leg is guarded by its own state flag so a
// failed wait resumes exactly where it left off without consuming or
// duplicating protocol packets. Malformed traffic (wrong op, wrong
// source, empty packets, a header that disagrees with the channel)
// panics — a mismatched program is a bug, not a runtime condition.
func (ch *RecvChannel) fetchE(deadline int64) error {
	if !ch.rvDone {
		if !ch.rvSeen {
			req, res := ch.ep.appRecv.PopProcE(ch.x.proc, deadline)
			if res != sim.WaitOK {
				return ch.x.waitErr(res, "pop", ch.port, ch.src)
			}
			if req.Op != packet.OpStreamCtl || int(req.Src) != ch.src {
				panic(fmt.Sprintf("smi: rank %d port %d: expected stream request from %d, got %v",
					ch.x.rank, ch.port, ch.src, req))
			}
			if c := packet.DecodeStreamCtl(req); c.Kind != packet.StreamReq || int(c.Elems) != ch.count {
				panic(fmt.Sprintf("smi: rank %d port %d: stream request %+v mismatches %d-element channel",
					ch.x.rank, ch.port, c, ch.count))
			}
			ch.rvSeen = true
		}
		// Grant the whole message: the rendezvous guarantees this receiver
		// is parked on the channel draining it, which is what bounds the
		// data's residence in the shared transport.
		grant := packet.EncodeStreamCtl(uint16(ch.x.rank), uint16(ch.src), uint8(ch.port),
			packet.StreamCtl{Kind: packet.StreamGrant, Elems: uint32(ch.count)})
		if res := ch.ep.appSend.PushProcE(ch.x.proc, grant, deadline); res != sim.WaitOK {
			return ch.x.waitErr(res, "pop", ch.port, ch.src)
		}
		ch.rvDone = true
	}
	if ch.raw && ch.fragWords == 0 {
		hdr, res := ch.ep.appRecv.PopProcE(ch.x.proc, deadline)
		if res != sim.WaitOK {
			return ch.x.waitErr(res, "pop", ch.port, ch.src)
		}
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
	pkt, res := ch.ep.appRecv.PopProcE(ch.x.proc, deadline)
	if res != sim.WaitOK {
		return ch.x.waitErr(res, "pop", ch.port, ch.src)
	}
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
	} else {
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
	// Charge the cycles a pipelined consumer spends draining the packet.
	cycles := int64((int(pkt.Count) + ch.vec - 1) / ch.vec)
	if cycles > 1 {
		ch.x.proc.Sleep(cycles - 1)
	}
	ch.cur = pkt
	ch.have = int(pkt.Count)
	ch.pos = 0
	return nil
}
