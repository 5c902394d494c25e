package transport

import (
	"fmt"

	"repro/internal/packet"
	"repro/internal/sim"
)

// ck is one communication kernel (CKS or CKR). It polls its inputs with
// the paper's R scheme and forwards each packet to the FIFO selected by
// the route function. A packet whose output FIFO is full is held in a
// register until space frees (hardware stall), backpressuring the input
// side.
type ck struct {
	// rank, q and recv name the kernel: CKR_q of the rank if recv, else
	// CKS_q (see Name).
	rank     int
	q        int
	recv     bool
	inputs   []*sim.Fifo[packet.Packet]
	r        int
	skipIdle bool
	// route selects the output of a packet popped by kernel q; the
	// device's CKS kernels share one, its CKR kernels another.
	route func(q int, p packet.Packet) *sim.Fifo[packet.Packet]
	// frozen reports whether the kernel is held in reset by the host
	// (failover reconfiguration); nil means never frozen.
	frozen func() bool

	nOut int // output FIFO count (structural metadata for resources)

	id sim.KernelID // set by attach

	cur     int   // input currently polled
	reads   int   // consecutive reads from cur
	lastNow int64 // cycle of the previous Tick (-1 before the first)
	pinned  bool  // last Tick ended held/locked/frozen: pointer does not free-run

	held      packet.Packet
	heldOut   *sim.Fifo[packet.Packet]
	hasHeld   bool
	heldSince int64 // cycle the held register was loaded

	// Route lock: after forwarding an OpStream fragment header the kernel
	// locks onto its input and routes the announced number of headerless
	// OpRaw words to the same output, ignoring every other input until the
	// fragment ends. A streaming fragment bounds the lock, so the kernel
	// returns to fair polling at every fragment boundary; a circuit (§4.2,
	// the multiplexing-free alternative) is one fragment spanning the
	// whole message.
	lockOut  *sim.Fifo[packet.Packet]
	lockLeft int

	forwarded uint64
	stalls    uint64
	fragments uint64 // stream fragments cut through this kernel
}

func (c *ck) init(rank, q int, recv bool, inputs []*sim.Fifo[packet.Packet], nOut, r int, skipIdle bool, route func(int, packet.Packet) *sim.Fifo[packet.Packet]) {
	*c = ck{rank: rank, q: q, recv: recv, inputs: inputs, nOut: nOut, r: r, skipIdle: skipIdle, route: route, lastNow: -1}
}

func (c *ck) Name() string {
	kind := "cks"
	if c.recv {
		kind = "ckr"
	}
	return fmt.Sprintf("dev%d.%s%d", c.rank, kind, c.q)
}

// attach registers the kernel with the engine and has commits on its
// inputs wake it. Its outputs wake it only while it is blocked on one
// (see Tick).
func (c *ck) attach(e *sim.Engine) {
	c.id = e.AddKernel(c)
	for _, in := range c.inputs {
		in.WakesKernel(c.id)
	}
}

// Tick performs one cycle of the polling state machine:
//
//   - If a packet is held (output was full), retry the push.
//   - Else if the current input has data and the read budget R is not
//     exhausted, pop one packet and route it.
//   - Else advance to the next input; advancing consumes the cycle, so
//     with R=1 and one active input among k, a packet is injected every
//     k cycles — the behaviour Table 4 measures.
func (c *ck) Tick(now int64) bool {
	active := c.tick(now)
	if c.hasHeld {
		// The held packet waits for its consumer to pop the jammed output.
		c.heldOut.WakeOnSpace(c.id)
	}
	c.pinned = c.hasHeld || c.lockLeft > 0 || (c.frozen != nil && c.frozen())
	return active
}

func (c *ck) tick(now int64) bool {
	if len(c.inputs) == 0 {
		return false
	}
	// The polling multiplexer is free-running hardware: it advances every
	// clock cycle whether or not the simulator executed the cycle, except
	// in the states that pin it (held packet, route lock, host reset).
	// Cycles this kernel did not tick (parked, or skipped by a
	// fast-forward) from an unpinned state were by construction empty
	// polls, so catch up with one modular jump. This makes the polling
	// schedule a function of simulated time alone, identical under the
	// dense and event schedulers.
	if c.lastNow >= 0 && now > c.lastNow+1 && !c.pinned {
		n := len(c.inputs)
		if c.cur += int((now - c.lastNow - 1) % int64(n)); c.cur >= n {
			c.cur -= n
		}
		c.reads = 0
	}
	c.lastNow = now
	if c.frozen != nil && c.frozen() {
		// Held in reset during a failover repair: no packet moves, and
		// the stall is externally resolved (the fault manager reports
		// activity while it runs), so the kernel reports idle.
		return false
	}
	if c.hasHeld {
		if c.heldOut.TryPush(c.held) {
			// Close the stall window: the opening cycle was counted when
			// the register was loaded.
			c.stalls += uint64(now - c.heldSince - 1)
			c.hasHeld = false
			c.forwarded++
			return true
		}
		// A failed retry makes no progress: report inactivity so the
		// engine can distinguish a jammed transport (whose resolution
		// depends on some process draining an endpoint) from live
		// traffic, and diagnose application deadlocks instead of
		// spinning.
		return false
	}
	if c.lockLeft > 0 {
		return c.tickLocked(now)
	}
	in := c.inputs[c.cur]
	if c.skipIdle && !in.CanPop() {
		// Priority-encoder arbiter: select the next input holding data
		// combinationally and serve it this very cycle.
		for off := 1; off < len(c.inputs); off++ {
			cand := (c.cur + off) % len(c.inputs)
			if c.inputs[cand].CanPop() {
				c.cur, c.reads = cand, 0
				in = c.inputs[cand]
				break
			}
		}
	}
	if p, ok := in.TryPop(); ok {
		c.reads++
		if c.reads >= c.r {
			// The R-th read and the pointer advance share a cycle: with
			// R=1 the kernel "polls a different connection every cycle".
			c.advance()
		}
		out := c.route(c.q, p)
		if out == nil {
			// Undeliverable packet: dropped (counted by the device).
			return true
		}
		if p.Op == packet.OpStream {
			// Cut a stream fragment through: the header resolved the
			// route, so its word train follows on this same input and goes
			// to this same output, exclusively — but only until the
			// fragment ends, when polling resumes and competing channels
			// get their turn (fair release).
			c.lockOut = out
			c.lockLeft = int(packet.DecodeStreamFrag(p).Words)
			c.fragments++
			// Stay locked on this input (undo any pointer advance).
			c.cur, c.reads = indexOf(c.inputs, in), 0
		}
		c.forward(p, out, now)
		return true
	}
	// Empty input: advancing to the next connection consumes the cycle.
	c.advance()
	// Advancing over idle inputs is not "work": report activity only if
	// some input actually has data waiting (so the engine can fast-forward
	// fully idle transport layers).
	for _, f := range c.inputs {
		if f.CanPop() {
			return true
		}
	}
	return false
}

// IdleUntil names the cycle the kernel next moves a packet. While
// polling, that is the cycle its free-running pointer reaches an input
// holding data: now (hot) if the current input has data — or, under the
// skip-idle arbiter, if any input does — and now+1+k if the first one is
// k inputs further on, every tick in between being an empty poll. A route
// lock acts while its input has data. The kernel parks whenever its next
// action depends on an external event rather than time: a held packet
// waits for a pop on its jammed output, an idle route lock for a commit
// on its locked input, and empty inputs for any input commit (the
// free-running pointer is reconstructed on wake from the elapsed time).
// Parking instead of polling is what lets the engine diagnose a jammed
// transport as a deadlock. A host reset is the one state held hot: the
// fault manager that resolves it runs every cycle anyway, and the pinned
// pointer must observe the span tick by tick.
func (c *ck) IdleUntil(now int64) int64 {
	n := len(c.inputs)
	switch {
	case n == 0:
		return sim.Never
	case c.frozen != nil && c.frozen():
		return now + 1
	case c.hasHeld:
		return sim.Never
	case c.lockLeft > 0:
		if c.inputs[c.cur].CanPop() {
			return now
		}
		return sim.Never
	}
	for k, i := 0, c.cur; k < n; k++ {
		if c.inputs[i].CanPop() {
			if k == 0 || c.skipIdle {
				return now
			}
			return now + 1 + int64(k)
		}
		if i++; i == n {
			i = 0
		}
	}
	return sim.Never
}

func (c *ck) advance() {
	if c.cur++; c.cur == len(c.inputs) {
		c.cur = 0
	}
	c.reads = 0
}

// forward pushes p to out. If out is full it loads the stall register
// instead and opens the stall window: one stall is credited up front so
// an open window is visible in the stats, the remainder when the retry
// succeeds.
func (c *ck) forward(p packet.Packet, out *sim.Fifo[packet.Packet], now int64) {
	if out.TryPush(p) {
		c.forwarded++
		return
	}
	c.held, c.heldOut, c.hasHeld = p, out, true
	c.heldSince = now
	c.stalls++
}

// tickLocked services a route lock: one raw word per cycle from the
// locked input to the locked output, blind to every other input — the
// multiplexing cost of cut-through.
func (c *ck) tickLocked(now int64) bool {
	in := c.inputs[c.cur]
	p, ok := in.TryPop()
	if !ok {
		// The lock is idle until its sender provides data; other inputs
		// stay blocked behind it either way.
		return false
	}
	if p.Op != packet.OpRaw {
		// Protocol violation: drop the lock and fall back to normal
		// routing next cycle rather than misroute data.
		c.lockLeft = 0
		if out := c.route(c.q, p); out != nil {
			c.forward(p, out, now)
		}
		return true
	}
	c.forward(p, c.lockOut, now)
	c.lockLeft--
	if c.lockLeft == 0 {
		// Fair release: the lock expired at the fragment boundary, so move
		// the polling pointer on — a competing channel gets served before
		// the next header can re-lock this input.
		c.advance()
	}
	return true
}

// indexOf returns the position of f in inputs (it is always present).
func indexOf(inputs []*sim.Fifo[packet.Packet], f *sim.Fifo[packet.Packet]) int {
	for i, in := range inputs {
		if in == f {
			return i
		}
	}
	return 0
}
