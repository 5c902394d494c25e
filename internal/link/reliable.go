package link

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/packet"
	"repro/internal/sim"
)

// This file adds the reliability layer the BSP abstracts away: a
// link-level retransmission protocol (go-back-N with per-frame CRC-32C,
// sequence numbers, cumulative acks, nacks, and a retransmit timeout)
// running over a faultable wire. The paper's QSFP interfaces "implement
// error correction, flow control, and handle backpressure" (§5.1)
// inside the shell; ReliableLink models that shell logic cycle for
// cycle, so injected faults cost real bandwidth and latency.
//
// Frames and acknowledgements:
//
//   - Every data frame carries (seq, crc) plus a piggybacked cumulative
//     ack for the opposite direction of the same cable.
//   - When a direction has no data to send, it spends otherwise idle
//     wire slots on pure control frames carrying the ack/nack state, so
//     acknowledgements never delay payload traffic. With zero faults
//     the data path is cycle-identical to the lossless Link.
//   - The receiver accepts frames strictly in order. A CRC error or a
//     sequence gap raises a nack; the sender rewinds to the first
//     unacknowledged frame and retransmits (go-back-N), which occupies
//     real forward wire slots.
//   - A retransmit timeout (RTO) covers tail losses; it only runs while
//     the wire has room, so pure backpressure never masquerades as
//     loss. DeadAfter consecutive fruitless timeouts declare the link
//     dead, handing control to the cluster's failover machinery.
//
// Like the pristine Link, each direction is split into a transmit half
// (on the sender rank's engine) and a receive half (on the receiver's),
// joined by a frame-carrying wire boundary and a same-latency credit
// return boundary. All the protocol's cross-direction couplings are
// engine-local by construction: the A->B transmitter piggybacks the
// ack state of the B->A *receiver*, which also lives on device A, and
// the A->B receiver applies acks to the B->A *transmitter*, which also
// lives on device B. CRC, go-back-N, and retransmission state therefore
// never needs same-cycle agreement across engines, which is what lets
// reliable clusters shard.

// ReliableParams tunes the retransmission protocol of one link.
type ReliableParams struct {
	// Window is the maximum number of unacknowledged frames the sender
	// buffers (default 4*latency+64, comfortably above the
	// bandwidth-delay product so it never binds in fault-free runs).
	Window int
	// RTO is the retransmit timeout in cycles (default 2*latency+64).
	RTO int64
	// DeadAfter is the number of consecutive timeout-triggered
	// retransmission rounds with zero ack progress after which the link
	// is declared dead (default 10).
	DeadAfter int
}

func (p *ReliableParams) fill(latency int64) {
	if p.Window <= 0 {
		p.Window = int(4*latency) + 64
	}
	if p.RTO <= 0 {
		p.RTO = 2*latency + 64
	}
	if p.DeadAfter <= 0 {
		p.DeadAfter = 10
	}
}

// frame is one wire transfer: a 32-byte word plus the link-layer
// sideband (sequence number, cumulative ack for the opposite direction,
// control flags, CRC). Real hardware carries the sideband in the
// inter-frame gap / control symbols of the serial encoding.
type frame struct {
	word  [packet.Size]byte
	seq   uint64
	ack   uint64 // receiver's next expected seq for the opposite direction
	nack  bool   // ask the opposite sender to rewind
	data  bool   // false: pure control frame (ack/nack only)
	raw   bool   // word is a headerless raw word (all 32 bytes payload)
	count uint8  // element count of a raw word (rides the sideband)
	crc   uint32
}

// flags packs the link-layer sideband into one byte: nack (bit 0), data
// (bit 1), raw (bit 2), and the raw element count (bits 3-7; counts are
// at most 31, so five bits suffice). A raw word has no in-band header —
// its op and count must cross the wire in the sideband, CRC-protected
// like the rest, or circuit and stream payloads would be corrupted by
// the header bytes a normal Encode writes.
func (f *frame) flags() byte {
	var b byte
	if f.nack {
		b |= 1
	}
	if f.data {
		b |= 2
	}
	if f.raw {
		b |= 4
	}
	b |= (f.count & 0x1f) << 3
	return b
}

func (f *frame) seal() { f.crc = packet.Checksum(f.word, f.seq, f.ack, f.flags()) }

func (f *frame) intact() bool {
	return f.crc == packet.Checksum(f.word, f.seq, f.ack, f.flags())
}

// txFrame is one unacknowledged entry of the retransmit buffer.
type txFrame struct {
	word  [packet.Size]byte
	seq   uint64
	raw   bool
	count uint8
}

// txRing is the retransmit buffer: the unacknowledged frames in seq
// order, n of them from index first of a power-of-two ring that grows to
// the peak in-flight count, so a steady stream allocates nothing.
type txRing struct {
	frames   []txFrame
	first, n int
}

// at returns the i-th unacknowledged frame (i < n).
func (r *txRing) at(i int) txFrame { return r.frames[(r.first+i)&(len(r.frames)-1)] }

// push appends a frame, doubling the ring when it is full.
func (r *txRing) push(tf txFrame) {
	if r.n == len(r.frames) {
		grown := make([]txFrame, max(4, 2*len(r.frames)))
		k := copy(grown, r.frames[r.first:])
		copy(grown[k:], r.frames[:r.first])
		r.frames, r.first = grown, 0
	}
	r.frames[(r.first+r.n)&(len(r.frames)-1)] = tf
	r.n++
}

// drop removes the k (<= n) oldest frames.
func (r *txRing) drop(k int) {
	r.first = (r.first + k) & (len(r.frames) - 1)
	r.n -= k
}

// encodeWord serializes a packet for the wire, routing headerless raw
// words through the lossless EncodeRaw form with their op/count moved to
// the frame sideband.
func encodeWord(p packet.Packet) (word [packet.Size]byte, raw bool, count uint8) {
	if p.Op == packet.OpRaw {
		return p.EncodeRaw(), true, p.Count
	}
	return p.Encode(), false, 0
}

// decodeWord is the inverse of encodeWord.
func decodeWord(word [packet.Size]byte, raw bool, count uint8) packet.Packet {
	if raw {
		return packet.DecodeRaw(word, count)
	}
	return packet.Decode(word)
}

// relTx is the transmit half of one direction, living on the sender
// rank's engine: retransmit buffer, go-back-N cursor, RTO, and the
// credit-window admission gate.
type relTx struct {
	name    string
	eng     *sim.Engine
	id      sim.KernelID
	in      *sim.Fifo[packet.Packet] // sender-side transport FIFO
	latency int64
	par     ReliableParams
	inj     *fault.LinkInjector // wire-entry injector (consumes the rng stream)
	wire    *sim.Boundary[frame]
	credits *sim.Boundary[struct{}]
	// peerRx is the opposite direction's receive half — on this same
	// engine, since the B->A receiver sits on device A — whose ack/nack
	// state this transmitter piggybacks and clears.
	peerRx *relRx

	// outstanding counts frames on the wire plus drained frames whose
	// credit has not matured: the sender admits a frame only while this
	// is below 2*latency, the same round-trip window the lossless Link
	// uses, so fault-free timing stays bit-identical between the two.
	outstanding int64

	buf        txRing // unacked frames, seq order
	cursor     int    // next buf entry to put on the wire
	nextSeq    uint64 // seq assigned to the next fresh frame
	ackedSeq   uint64 // all seqs below this are acknowledged
	maxSent    uint64 // highest seq ever placed on the wire + 1
	timerBase  int64  // RTO reference: last send/progress/rewind
	timerArmed bool
	timeouts   int // consecutive fruitless RTO rounds
	rewindOk   int64
	dead       bool
	parked     bool

	retransmits uint64
	acksSent    uint64
}

// relRx is the receive half of one direction, living on the receiver
// rank's engine: in-order delivery, duplicate rejection, CRC checks,
// and ack/nack bookkeeping for the opposite transmitter to send.
type relRx struct {
	name    string
	eng     *sim.Engine
	id      sim.KernelID
	out     *sim.Fifo[packet.Packet] // receiver-side transport FIFO
	latency int64
	inj     *fault.LinkInjector // wire-exit injector (Down/LoseOnWire only; no rng)
	wire    *sim.Boundary[frame]
	credits *sim.Boundary[struct{}]
	// peerTx is the opposite direction's transmit half — on this same
	// engine — to which received cumulative acks and rewind requests
	// are applied.
	peerTx *relTx

	rxExpected uint64 // next in-order seq to deliver
	ackOwed    bool   // delivered (or re-ack-worthy) frames not yet acked
	nackOwed   bool
	held       *frame // in-order frame waiting for space in out
	parked     bool

	delivered  uint64
	stalls     uint64
	stallSince int64 // cycle the current held-frame window opened, -1 if none
	crcErrors  uint64
	duplicates uint64
}

// ReliableLink is one direction of a cable running the retransmission
// protocol: a facade over the split transmit/receive kernels. The two
// directions are created together by NewReliablePair and cross-linked:
// acknowledgements for this direction's data travel on the peer
// direction's wire.
type ReliableLink struct {
	name    string
	latency int64
	par     ReliableParams
	tx      *relTx
	rx      *relRx
}

// NewReliablePair registers both directions of a cable and cross-links
// them for acknowledgement traffic. The A->B transmit half and the B->A
// receive half live on engA; the A->B receive half and B->A transmit
// half on engB (one engine may serve both roles in unsharded runs).
// inAB/outAB are the transmit/receive FIFOs of the A->B direction,
// inBA/outBA of B->A. latency <= 0 selects DefaultLatency; the entry
// injectors injAB/injBA consume the per-link random stream at the wire
// entry, the exit injectors model carrier loss at the wire exit without
// touching the stream (they live on the far engine), and any of the
// four may be nil.
func NewReliablePair(engA, engB *sim.Engine, nameAB, nameBA string,
	inAB, outAB, inBA, outBA *sim.Fifo[packet.Packet],
	latency int64, par ReliableParams,
	injAB, injBA, injABExit, injBAExit *fault.LinkInjector) (*ReliableLink, *ReliableLink) {
	if latency <= 0 {
		latency = DefaultLatency
	}
	par.fill(latency)
	txAB := &relTx{name: nameAB, eng: engA, in: inAB, latency: latency, par: par, inj: injAB}
	rxAB := &relRx{name: nameAB, eng: engB, out: outAB, latency: latency, inj: injABExit, stallSince: -1}
	txBA := &relTx{name: nameBA, eng: engB, in: inBA, latency: latency, par: par, inj: injBA}
	rxBA := &relRx{name: nameBA, eng: engA, out: outBA, latency: latency, inj: injBAExit, stallSince: -1}
	txAB.peerRx, rxAB.peerTx = rxBA, txBA
	txBA.peerRx, rxBA.peerTx = rxAB, txAB
	// Registration order reproduces the monolithic kernel's intra-cycle
	// order on a single engine — receive(AB), transmit(AB), receive(BA),
	// transmit(BA) — and its per-engine projection on two: every
	// same-engine coupling (piggyback reads, processAck applications)
	// then observes state at exactly the dense cycle phase it used to.
	rxAB.id = engB.AddKernel(rxAB)
	txAB.id = engA.AddKernel(txAB)
	rxBA.id = engA.AddKernel(rxBA)
	txBA.id = engB.AddKernel(txBA)
	wireAB := sim.NewBoundary[frame](engA, engB, rxAB.id, latency)
	creditsAB := sim.NewBoundary[struct{}](engB, engA, txAB.id, latency)
	wireBA := sim.NewBoundary[frame](engB, engA, rxBA.id, latency)
	creditsBA := sim.NewBoundary[struct{}](engA, engB, txBA.id, latency)
	txAB.wire, txAB.credits, rxAB.wire, rxAB.credits = wireAB, creditsAB, wireAB, creditsAB
	txBA.wire, txBA.credits, rxBA.wire, rxBA.credits = wireBA, creditsBA, wireBA, creditsBA
	// A parked transmit half resumes on new transmit data (in commit) or
	// maturing credits; a parked receive half on wire arrivals or, while
	// it holds a frame, freed receiver space (out pop, armed in Tick).
	// Ack-driven transmit state changes arrive via explicit engine-local
	// wakes from the receive halves.
	inAB.WakesKernel(txAB.id)
	inBA.WakesKernel(txBA.id)
	ab := &ReliableLink{name: nameAB, latency: latency, par: par, tx: txAB, rx: rxAB}
	ba := &ReliableLink{name: nameBA, latency: latency, par: par, tx: txBA, rx: rxBA}
	return ab, ba
}

// Name returns the link's name.
func (l *ReliableLink) Name() string { return l.name }

// Delivered returns in-order data packets delivered to the receiver
// (duplicates excluded).
func (l *ReliableLink) Delivered() uint64 { return l.rx.delivered }

// Stalls returns cycles the in-order head frame waited on a full
// receiver FIFO.
func (l *ReliableLink) Stalls() uint64 { return l.rx.stalls }

// Retransmits returns data frames sent more than once.
func (l *ReliableLink) Retransmits() uint64 { return l.tx.retransmits }

// CrcErrors returns frames discarded by the receiver's CRC check.
func (l *ReliableLink) CrcErrors() uint64 { return l.rx.crcErrors }

// AcksSent returns pure control frames spent on acknowledgements.
func (l *ReliableLink) AcksSent() uint64 { return l.tx.acksSent }

// Duplicates returns already-delivered data frames rejected by the
// receiver's sequence check.
func (l *ReliableLink) Duplicates() uint64 { return l.rx.duplicates }

// Dead reports whether the sender has declared this direction dead
// (DeadAfter consecutive fruitless retransmission rounds).
func (l *ReliableLink) Dead() bool { return l.tx.dead }

// RxExpected returns the receiver's next expected sequence number: every
// frame below it has been delivered exactly once. The failover
// controller reads it over the host control plane (PCIe survives cable
// failure) to rescue unacknowledged frames without duplication.
func (l *ReliableLink) RxExpected() uint64 { return l.rx.rxExpected }

// Unacked decodes the retransmit-buffer frames the peer has not
// delivered (seq >= peerDelivered), in order. Combined with RxExpected
// of the same direction this is the exact loss set of a dead cable.
func (l *ReliableLink) Unacked(peerDelivered uint64) []packet.Packet {
	var out []packet.Packet
	for i := 0; i < l.tx.buf.n; i++ {
		if t := l.tx.buf.at(i); t.seq >= peerDelivered {
			out = append(out, decodeWord(t.word, t.raw, t.count))
		}
	}
	return out
}

// Park permanently disables the link (failover has taken over): both
// boundary queues are cleared — in-flight traffic is lost, as on a real
// dead cable — and both halves' Ticks become no-ops reporting
// inactivity. The retransmit buffer is kept for Unacked. Called with
// both engines at a common stopped point (a kernel tick in unsharded
// runs, a group barrier otherwise).
func (l *ReliableLink) Park() {
	l.tx.parked = true
	l.tx.dead = true
	l.tx.outstanding = 0
	l.rx.parked = true
	l.rx.held = nil
	l.tx.wire.Clear()
	l.tx.credits.Clear()
}

// ForgiveTimeouts resets the death counter and rebases the retransmit
// timer. The failover controller calls it on surviving links after a
// repair, since a global pause can legitimately starve them of acks for
// longer than the RTO.
func (l *ReliableLink) ForgiveTimeouts(now int64) {
	t := l.tx
	if t.parked {
		return
	}
	t.timeouts = 0
	t.dead = false
	if t.buf.n > 0 {
		t.timerArmed = true
		t.timerBase = now
	} else {
		t.timerArmed = false
	}
	// The timer was rebased; if the transmit half is parked on the old
	// deadline, have it tick once and re-park on the new one. now+1 is
	// when a dense manager-kernel tick at `now` would be observed.
	t.eng.WakeKernelAt(t.id, now+1)
}

// DeathBound returns a conservative lower bound on the earliest cycle
// this direction's transmitter could declare itself dead, given the
// transmit state visible at the group barrier clock `base`. Fruitless
// RTO rounds are at least RTO cycles apart and death needs
// DeadAfter-timeouts more of them; ack progress and timer resets only
// push the bound later, so a cap derived from it stays safe until the
// next barrier recomputes it.
func (l *ReliableLink) DeathBound(base int64) int64 {
	t := l.tx
	if t.parked {
		return sim.Never
	}
	if t.dead {
		return base // already dead: the manager must observe it now
	}
	if !t.timerArmed {
		// An unarmed timer has timeouts == 0 and can first fire one RTO
		// after it arms, which cannot happen before base.
		return base + int64(t.par.DeadAfter)*t.par.RTO
	}
	left := int64(t.par.DeadAfter - 1 - t.timeouts)
	if left < 0 {
		left = 0
	}
	first := t.timerBase + t.par.RTO
	if first < base {
		first = base
	}
	return first + left*t.par.RTO
}

func (l *ReliableLink) String() string {
	return fmt.Sprintf("rlink %s (lat=%d, delivered=%d, rexmit=%d)", l.name, l.latency, l.rx.delivered, l.tx.retransmits)
}

func (r *relRx) Name() string { return r.name + ".rx" }

// Tick advances the receive half one cycle: deliver the head-of-wire
// frame if its flight time has elapsed — CRC check, ack/nack processing
// for the opposite direction's transmitter, strict in-order delivery
// with duplicate rejection.
func (r *relRx) Tick(now int64) bool {
	if r.parked {
		return false
	}
	// A held in-order frame retries its push before the wire moves.
	if r.held != nil {
		if r.out.TryPush(decodeWord(r.held.word, r.held.raw, r.held.count)) {
			r.rxExpected = r.held.seq + 1
			r.oweAck()
			r.delivered++
			r.held = nil
			if r.stallSince >= 0 {
				// Close the held-frame window; its opening cycle was
				// counted when the frame was first held.
				r.stalls += uint64(now - r.stallSince - 1)
				r.stallSince = -1
			}
			return true
		}
		r.out.WakeOnSpace(r.id)
		return false
	}
	f, ok := r.wire.PopReady(now)
	if !ok {
		return false
	}
	// Return one credit per drained wire slot regardless of the frame's
	// fate: the slot itself is free again after the feedback latency.
	r.credits.Put(now, struct{}{})
	if r.inj.Down(now) {
		// The link dropped carrier while the frame was in flight.
		r.inj.LoseOnWire(now)
		return true
	}
	if !f.intact() {
		r.crcErrors++
		r.oweNack()
		return true
	}
	// The sideband acknowledges the opposite direction's data.
	r.peerTx.processAck(f.ack, f.nack, now)
	if !f.data {
		return true
	}
	switch {
	case f.seq == r.rxExpected:
		if r.out.TryPush(decodeWord(f.word, f.raw, f.count)) {
			r.rxExpected = f.seq + 1
			r.oweAck()
			r.delivered++
		} else {
			// Receiver FIFO full: hold the frame (hardware stall), do
			// not nack — backpressure is not loss.
			held := f
			r.held = &held
			r.out.WakeOnSpace(r.id)
			if r.stallSince < 0 {
				r.stallSince = now
				r.stalls++
			}
		}
	case f.seq < r.rxExpected:
		// Duplicate of a delivered frame (retransmission raced the
		// ack): discard and re-advertise the cumulative ack.
		r.duplicates++
		r.oweAck()
	default:
		// Gap: an earlier frame was lost. Go-back-N discards
		// out-of-order frames and asks for a rewind.
		r.oweNack()
	}
	return true
}

// IdleUntil promises the receive half does nothing before its oldest
// in-flight frame finishes serializing, and keeps it hot while matured
// frames wait. A held frame parks until the receive FIFO's pop (armed in
// Tick), an empty wire until the next arrival.
func (r *relRx) IdleUntil(now int64) int64 {
	if r.parked || r.held != nil {
		return sim.Never
	}
	if next := r.wire.NextReadyAt(); next > now {
		return next // Never when the wire is empty
	}
	return now
}

// oweAck flags acknowledgement state for this receiver and wakes the
// opposite direction's transmitter — on this same engine — which sends
// the ack on its wire. The wake is timed by the engine so the peer
// observes the flag exactly when the dense scan would (same cycle if it
// ticks later, next cycle otherwise).
func (r *relRx) oweAck() {
	r.ackOwed = true
	r.eng.WakeKernel(r.peerTx.id)
}

func (r *relRx) oweNack() {
	r.nackOwed = true
	r.eng.WakeKernel(r.peerTx.id)
}

func (t *relTx) Name() string { return t.name + ".tx" }

// drainCredits discards matured credits, shrinking the outstanding
// count the admission window is charged against.
func (t *relTx) drainCredits(now int64) {
	for {
		if _, ok := t.credits.PopReady(now); !ok {
			return
		}
		t.outstanding--
	}
}

// Tick advances the transmit half one cycle: handle the retransmit
// timeout, then place at most one frame — backlog retransmission, fresh
// data, or a pure control frame — on the wire.
func (t *relTx) Tick(now int64) bool {
	if t.parked {
		return false
	}
	t.drainCredits(now)
	if t.dead {
		return false
	}
	// Retransmit timeout. The timer only runs while the wire has room:
	// a wire jammed by receiver backpressure proves the path is alive
	// but congested, and retransmitting into it would be both futile
	// and unfaithful.
	if t.timerArmed && now-t.timerBase >= t.par.RTO {
		if t.outstanding >= 2*t.latency {
			t.timerBase = now
		} else {
			t.cursor = 0 // go-back-N rewind
			t.rewindOk = now + t.par.RTO
			t.timerBase = now
			t.timeouts++
			if t.timeouts >= t.par.DeadAfter {
				t.dead = true
				return true
			}
		}
	}
	if t.outstanding >= 2*t.latency {
		return false
	}
	// Backlog first: frames already accepted but not yet (re)sent.
	if t.cursor < t.buf.n {
		tf := t.buf.at(t.cursor)
		t.cursor++
		t.sendData(now, tf)
		return true
	}
	// Fresh data, popped and transmitted in the same cycle — identical
	// admission timing to the lossless Link.
	if t.buf.n < t.par.Window {
		if p, ok := t.in.TryPop(); ok {
			word, raw, count := encodeWord(p)
			tf := txFrame{word: word, seq: t.nextSeq, raw: raw, count: count}
			t.nextSeq++
			t.buf.push(tf)
			t.cursor = t.buf.n
			t.sendData(now, tf)
			return true
		}
	}
	// Idle slot: spend it on acknowledgement state if any is owed for
	// the opposite direction's receiver (engine-local).
	if t.peerRx.ackOwed || t.peerRx.nackOwed {
		f := frame{ack: t.peerRx.rxExpected, nack: t.peerRx.nackOwed}
		f.seal()
		t.peerRx.ackOwed, t.peerRx.nackOwed = false, false
		t.acksSent++
		t.putOnWire(now, f)
		return true
	}
	return false
}

// IdleUntil keeps the transmit half hot while its window is open and a
// frame is waiting for the wire, and otherwise promises it does nothing
// before its next scheduled event: a credit maturing (which can reopen the
// admission window; harmless extra wake otherwise) or the retransmit
// timeout firing. Everything else arrives as a wake — transmit-FIFO
// commits and ack/nack state changes applied by the engine-local receive
// halves.
func (t *relTx) IdleUntil(now int64) int64 {
	if t.parked {
		return sim.Never
	}
	if !t.dead && t.outstanding < 2*t.latency && t.hasFrame() {
		return now
	}
	next := sim.Never
	if c := t.credits.NextReadyAt(); c > now && c < next {
		next = c
	}
	if !t.dead && t.timerArmed {
		if d := t.timerBase + t.par.RTO; d < next {
			next = d
		}
	}
	return next
}

// hasFrame reports whether an open window would put a frame on the wire
// this tick: backlog, fresh data, or owed acknowledgement state.
func (t *relTx) hasFrame() bool {
	return t.cursor < t.buf.n || t.buf.n < t.par.Window && t.in.CanPop() ||
		t.peerRx.ackOwed || t.peerRx.nackOwed
}

// sendData places one data frame on the wire with the current
// piggybacked ack state for the opposite direction.
func (t *relTx) sendData(now int64, tf txFrame) {
	if tf.seq < t.maxSent {
		t.retransmits++
	} else {
		t.maxSent = tf.seq + 1
	}
	f := frame{word: tf.word, seq: tf.seq, data: true, raw: tf.raw, count: tf.count, ack: t.peerRx.rxExpected, nack: t.peerRx.nackOwed}
	f.seal()
	t.peerRx.ackOwed, t.peerRx.nackOwed = false, false
	if !t.timerArmed {
		t.timerArmed = true
		t.timerBase = now
	}
	t.putOnWire(now, f)
}

// putOnWire passes a frame through the fault injector and, if it
// survives, puts it on the wire boundary.
func (t *relTx) putOnWire(now int64, f frame) {
	if t.inj.Down(now) {
		t.inj.LoseOnWire(now)
		return
	}
	word, dropped := t.inj.Transmit(now, f.word)
	if dropped {
		return
	}
	f.word = word // a corrupted word no longer matches f.crc
	t.wire.Put(now, f)
	t.outstanding++
}

// processAck applies a cumulative ack (and optional rewind request)
// received on the opposite direction's wire to this direction's
// transmit state. Called by the opposite receive half, which lives on
// this transmitter's engine.
func (t *relTx) processAck(ack uint64, nack bool, now int64) {
	// This runs inside the peer direction's receive tick but mutates
	// this transmit half's state; if this half is parked, the freed
	// window (or a rewind) is work it must wake for.
	defer t.eng.WakeKernel(t.id)
	if ack > t.ackedSeq {
		drop := int(ack - t.ackedSeq)
		if drop > t.buf.n {
			drop = t.buf.n
		}
		t.buf.drop(drop)
		t.cursor -= drop
		if t.cursor < 0 {
			t.cursor = 0
		}
		t.ackedSeq = ack
		t.timeouts = 0
		t.timerBase = now
		if t.buf.n == 0 && t.cursor == 0 {
			t.timerArmed = false
		}
	}
	if nack && now >= t.rewindOk && t.buf.n > 0 {
		// Rewind to the first unacked frame; guard so the burst of
		// nacks a single loss provokes triggers only one rewind.
		t.cursor = 0
		t.rewindOk = now + 2*t.latency
		t.timerBase = now
	}
}
