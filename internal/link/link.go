// Package link models the dedicated serial connections between FPGA
// network interfaces (QSFP transceivers on the experimental platform).
//
// A link moves one 32-byte network packet per clock cycle per direction
// — 40 Gbit/s raw at the default 156.25 MHz clock — after a fixed
// propagation/serialization latency. Links are lossless: the BSP's QSFP
// interfaces "implement error correction, flow control, and handle
// backpressure" (paper §5.1), which the simulation reflects by stalling
// delivery when the receiver FIFO is full and by refusing new packets
// when the credit window is exhausted.
//
// Each direction is split into a transmit half (living on the sender
// rank's engine shard) and a receive half (on the receiver's shard),
// joined by two sim.Boundary delay lines: the wire carrying packets
// forward and a same-latency credit return path. The transmit half
// admits a packet only while fewer than 2×latency packets are
// outstanding (sent but no credit back) — the round-trip window that
// sustains one packet per cycle at saturation, like a credit-based
// serial protocol. Crucially, admission depends only on sender-local
// state plus credits that are at least one link latency old, so the two
// halves never need same-cycle agreement: exactly the decoupling the
// sharded scheduler's lookahead window requires.
package link

import (
	"fmt"

	"repro/internal/packet"
	"repro/internal/sim"
)

// DefaultLatency is the one-way link latency in cycles. At 156.25 MHz,
// 110 cycles ≈ 0.7 µs, consistent with the ~0.8 µs single-hop latency
// the paper measures end to end (Table 3).
const DefaultLatency = 110

// Link is a unidirectional packet pipe between two devices. A physical
// cable is modeled as two Links, one per direction. The struct is a
// facade over the split transmit/receive kernels.
type Link struct {
	name    string
	latency int64
	tx      *linkTx
	rx      *linkRx
}

// linkTx is the sender-side half: it pops the transport's network-out
// FIFO and puts packets on the wire, gated by the credit window.
type linkTx struct {
	name    string
	in      *sim.Fifo[packet.Packet] // transmit side (CKS "network port")
	wire    *sim.Boundary[packet.Packet]
	credits *sim.Boundary[struct{}]
	window  int64 // max outstanding packets: 2×latency (the round trip)
	// outstanding counts packets sent whose credits have not matured.
	outstanding int64
}

// linkRx is the receiver-side half: it delivers matured wire entries to
// the transport's network-in FIFO and returns one credit per delivery.
type linkRx struct {
	name    string
	id      sim.KernelID
	out     *sim.Fifo[packet.Packet] // receive side (CKR "network port")
	wire    *sim.Boundary[packet.Packet]
	credits *sim.Boundary[struct{}]

	delivered  uint64
	stalls     uint64 // cycles the head packet waited on a full receiver
	stallSince int64  // cycle the current blocked-head window opened, -1 if none
}

// New registers a unidirectional link between in (sender side, on the
// src engine) and out (receiver side, on the dst engine). src and dst
// are the same engine in single-shard runs. latency <= 0 selects
// DefaultLatency.
func New(src, dst *sim.Engine, name string, in, out *sim.Fifo[packet.Packet], latency int64) *Link {
	if latency <= 0 {
		latency = DefaultLatency
	}
	rx := &linkRx{name: name, out: out, stallSince: -1}
	tx := &linkTx{name: name, in: in, window: 2 * latency}
	// The receive half registers before the transmit half, mirroring the
	// deliver-then-accept order of a single-kernel link.
	rx.id = dst.AddKernel(rx)
	txID := src.AddKernel(tx)
	wire := sim.NewBoundary[packet.Packet](src, dst, rx.id, latency)
	credits := sim.NewBoundary[struct{}](dst, src, txID, latency)
	tx.wire, tx.credits = wire, credits
	rx.wire, rx.credits = wire, credits
	// Commits on the transmit FIFO and, while the receive half is stalled,
	// a pop of the receive FIFO are the only external events (besides
	// boundary arrivals, which wake the halves directly) that can give a
	// parked half work.
	in.WakesKernel(txID)
	return &Link{name: name, latency: latency, tx: tx, rx: rx}
}

// Name returns the link's name.
func (l *Link) Name() string { return l.name }

// Delivered returns the number of packets delivered to the receiver.
func (l *Link) Delivered() uint64 { return l.rx.delivered }

// Stalls returns the number of cycles the link head spent blocked on a
// full receiver FIFO (backpressure pressure gauge).
func (l *Link) Stalls() uint64 { return l.rx.stalls }

func (l *Link) String() string {
	return fmt.Sprintf("link %s (lat=%d, delivered=%d)", l.name, l.latency, l.rx.delivered)
}

func (t *linkTx) Name() string { return t.name + ".tx" }

// Tick advances the transmit half one cycle: collect matured credits,
// then accept at most one new packet if the window allows.
func (t *linkTx) Tick(now int64) bool {
	for {
		if _, ok := t.credits.PopReady(now); !ok {
			break
		}
		t.outstanding--
	}
	if t.outstanding < t.window {
		if p, ok := t.in.TryPop(); ok {
			t.wire.Put(now, p)
			t.outstanding++
			return true
		}
	}
	// Credit maturation alone is not activity: it changes no state any
	// other component can observe, so an otherwise idle sender must not
	// delay quiescence detection while residual credits drain.
	return false
}

// IdleUntil keeps the transmit half hot while it has data and an open
// window, and parks it until the next credit matures when it is
// window-blocked with data waiting; everything else that can give it work
// arrives as a wake (transmit-FIFO commit, credit flush).
func (t *linkTx) IdleUntil(now int64) int64 {
	switch {
	case !t.in.CanPop():
		return sim.Never
	case t.outstanding < t.window:
		return now
	}
	return t.credits.NextReadyAt()
}

func (r *linkRx) Name() string { return r.name + ".rx" }

// Tick advances the receive half one cycle: deliver at most one matured
// packet and return its credit.
func (r *linkRx) Tick(now int64) bool {
	p, ok := r.wire.PeekReady(now)
	if !ok {
		return false
	}
	if !r.out.TryPush(p) {
		r.out.WakeOnSpace(r.id)
		if r.stallSince < 0 {
			r.stallSince = now
			r.stalls++
		}
		return false
	}
	if r.stallSince >= 0 {
		// Close the blocked-head window: the opening cycle was counted
		// when the window opened.
		r.stalls += uint64(now - r.stallSince - 1)
		r.stallSince = -1
	}
	r.wire.PopReady(now)
	r.credits.Put(now, struct{}{})
	r.delivered++
	return true
}

// IdleUntil promises the receive half does nothing before its oldest
// in-flight packet finishes serializing, and keeps it hot while matured
// packets wait. A head blocked on a full receive FIFO parks until its pop
// (armed in Tick), an empty wire until the next arrival.
func (r *linkRx) IdleUntil(now int64) int64 {
	if r.stallSince >= 0 {
		return sim.Never
	}
	if next := r.wire.NextReadyAt(); next > now {
		return next // Never when the wire is empty
	}
	return now
}
