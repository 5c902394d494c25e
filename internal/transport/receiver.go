package transport

import (
	"fmt"

	"repro/internal/packet"
	"repro/internal/routing"
	"repro/internal/sim"
)

// ReceiverDriven is the Homa-style transport ablation: the CKS/CKR
// fabric is unchanged, but paced point-to-point flows pass a per-port
// pacing gate before reaching their CKS. Each sender may inject an
// unscheduled first window eagerly; beyond it the flow announces its
// backlog (OpGrantReq) and waits for the destination's granter, which
// serves announcements smallest-remaining-first (SRPT) and only grants
// what fits in the destination endpoint's free buffer space. Incast
// senders therefore take turns filling the receiver instead of piling
// into the network, while short messages never wait for a grant.
//
// The pacing ops are in-memory control packets (no 3-bit wire encoding
// — the wire op space is full, see internal/packet), so the
// receiver-driven transport composes with pristine links only; core
// rejects it for reliable/faulty clusters, which serialize frames.
type ReceiverDriven struct {
	device
	pacer   *rdPacer
	granter *rdGranter
}

// Kind reports ReceiverDrivenKind.
func (d *ReceiverDriven) Kind() Kind { return ReceiverDrivenKind }

// Grants returns the pacing grants this device's granter issued.
func (d *ReceiverDriven) Grants() uint64 {
	if d.granter == nil {
		return 0
	}
	return d.granter.grants
}

// Shape extends the core footprint with the pacer and granter kernels.
func (d *ReceiverDriven) Shape() Shape {
	s := d.device.Shape()
	if d.pacer != nil {
		if n := d.pacer.portCount(); n > 0 {
			s.CKPorts = append(s.CKPorts, n)
		}
	}
	if d.granter != nil {
		s.CKPorts = append(s.CKPorts, d.granter.portCount())
	}
	return s
}

// grantExitPort is the synthetic port the granter's output FIFO binds
// to. It only exists to attach the FIFO as a CKS input; grants are
// addressed by (Dst, Port) of the paced flow and are intercepted at the
// destination CKR before any port lookup, so the value never collides
// with application ports (which are non-negative).
const grantExitPort = -1

// NewReceiverDriven builds the receiver-driven transport for one rank.
// Most callers should go through New.
func NewReceiverDriven(e *sim.Engine, rank, ifaces int, routes *routing.Routes, bindings []PortBinding, cfg Config) (*ReceiverDriven, error) {
	cfg.fill()
	d := &ReceiverDriven{}

	// A rank with no paced bindings (pure-collective programs) needs no
	// pacing hardware at all; building none keeps such programs
	// bit-identical to the sender-driven transport — the granter's exit
	// FIFO would otherwise lengthen CKS_0's polling round.
	hasPaced := false
	for _, b := range bindings {
		if b.Paced && (b.Send != nil || b.Recv != nil) {
			hasPaced = true
			break
		}
	}
	if !hasPaced {
		if err := d.build(e, rank, ifaces, routes, bindings, cfg, nil); err != nil {
			return nil, err
		}
		return d, nil
	}

	// Interpose a pacing gate on every paced send side: the application
	// FIFO now feeds the pacer, and the gate (holding only packets
	// cleared to send) feeds the CKS. Unpaced bindings attach directly.
	eff := make([]PortBinding, len(bindings))
	copy(eff, bindings)
	var ports []*rdPacerPort
	recvOf := make(map[int]*sim.Fifo[packet.Packet])
	extraFifos := 0
	for i, b := range bindings {
		if !b.Paced {
			continue
		}
		if b.Recv != nil {
			recvOf[b.Port] = b.Recv
		}
		if b.Send == nil {
			continue
		}
		gate := sim.NewFifo[packet.Packet](e, fmt.Sprintf("dev%d.gate%d", rank, b.Port), cfg.CKDepth)
		extraFifos++
		eff[i].Send = gate
		ports = append(ports, &rdPacerPort{
			port:  b.Port,
			app:   b.Send,
			gate:  gate,
			flows: make(map[uint16]*rdFlow),
		})
	}

	// Per-interface control queues: CKR_q diverts locally addressed
	// pacing ops here (single writer per FIFO), the pacer and granter
	// drain them every tick.
	reqIn := make([]*sim.Fifo[packet.Packet], ifaces)
	grantIn := make([]*sim.Fifo[packet.Packet], ifaces)
	for q := 0; q < ifaces; q++ {
		reqIn[q] = sim.NewFifo[packet.Packet](e, fmt.Sprintf("dev%d.rdreq%d", rank, q), cfg.CKDepth)
		grantIn[q] = sim.NewFifo[packet.Packet](e, fmt.Sprintf("dev%d.rdgrant%d", rank, q), cfg.CKDepth)
		extraFifos += 2
	}

	// The granter's outgoing grants enter the fabric through CKS_0 like
	// any application traffic (routing and backpressure apply).
	grantOut := sim.NewFifo[packet.Packet](e, fmt.Sprintf("dev%d.grantout", rank), cfg.CKDepth)
	extraFifos++
	eff = append(eff, PortBinding{Port: grantExitPort, Iface: 0, Send: grantOut})

	intercept := func(q int, p packet.Packet) *sim.Fifo[packet.Packet] {
		switch p.Op {
		case packet.OpGrantReq:
			return reqIn[q]
		case packet.OpGrant:
			return grantIn[q]
		}
		return nil
	}
	if err := d.build(e, rank, ifaces, routes, eff, cfg, intercept); err != nil {
		return nil, err
	}
	d.numFifos += extraFifos

	d.pacer = &rdPacer{
		rank:        rank,
		ports:       ports,
		grantIn:     grantIn,
		unscheduled: uint64(cfg.Unscheduled),
		reqInterval: cfg.ReqInterval,
	}
	d.pacer.id = e.AddKernel(d.pacer)
	for _, pp := range ports {
		pp.app.WakesKernel(d.pacer.id) // new application packets
	}
	for q := 0; q < ifaces; q++ {
		grantIn[q].WakesKernel(d.pacer.id)
	}

	d.granter = &rdGranter{
		rank:        rank,
		reqIn:       reqIn,
		grantOut:    grantOut,
		recvOf:      recvOf,
		flows:       make(map[rdFlowKey]*rdDemand),
		batch:       uint64(cfg.GrantBatch),
		unscheduled: uint64(cfg.Unscheduled),
	}
	d.granter.id = e.AddKernel(d.granter)
	for q := 0; q < ifaces; q++ {
		reqIn[q].WakesKernel(d.granter.id)
	}
	for _, rf := range recvOf {
		rf.WakesKernel(d.granter.id) // arrivals and app pops move the free endpoint space
	}
	return d, nil
}

// rdFlow is the sender-side pacing state of one (port, destination)
// flow. All counters are cumulative packet counts, so a lost or
// reordered control packet can only delay a flow, never corrupt it.
type rdFlow struct {
	sent      uint64 // OpData packets passed to the gate
	granted   uint64 // allowance from the latest grant
	announced uint64 // demand last announced
	lastReq   int64  // cycle of the last announcement
}

// rdPacerPort is one paced send port: the application FIFO it drains
// and the gate FIFO feeding the port's CKS.
type rdPacerPort struct {
	port  int
	app   *sim.Fifo[packet.Packet]
	gate  *sim.Fifo[packet.Packet]
	flows map[uint16]*rdFlow // by destination rank
}

func (pp *rdPacerPort) flow(dst uint16) *rdFlow {
	f := pp.flows[dst]
	if f == nil {
		// Far enough in the past that the first announcement is never
		// rate-limited.
		f = &rdFlow{lastReq: -(int64(1) << 62)}
		pp.flows[dst] = f
	}
	return f
}

// rdPacer is the per-device sender pacing kernel. Each tick it applies
// incoming grants, then serves every paced port once — modelling one
// gate register per port, all clocked in parallel. Decisions depend
// only on committed FIFO state, its own counters, and simulated time,
// so every scheduler sees identical behaviour.
type rdPacer struct {
	rank        int
	id          sim.KernelID
	ports       []*rdPacerPort
	grantIn     []*sim.Fifo[packet.Packet]
	unscheduled uint64
	reqInterval int64
}

func (k *rdPacer) Name() string { return fmt.Sprintf("dev%d.rdpacer", k.rank) }

func (k *rdPacer) portCount() int {
	// app + gate per paced port, plus the grant inputs.
	return 2*len(k.ports) + len(k.grantIn)
}

func (k *rdPacer) Tick(now int64) bool {
	active := false
	for _, g := range k.grantIn {
		for {
			p, ok := g.TryPop()
			if !ok {
				break
			}
			active = true
			pp := k.portByID(int(p.Port))
			if pp == nil {
				continue // grant for a port that is not paced here
			}
			// The grant's source is the flow's destination rank.
			f := pp.flow(p.Src)
			if t := uint64(packet.GrantTotal(p)); t > f.granted {
				f.granted = t
			}
		}
	}
	for _, pp := range k.ports {
		head, ok := pp.app.Peek()
		if !ok {
			continue
		}
		if head.Op != packet.OpData {
			// Control traffic (application-level credits, sync) is
			// never paced: pass it through as soon as the gate has room.
			if pp.gate.TryPush(head) {
				pp.app.TryPop()
				active = true
			}
			continue
		}
		f := pp.flow(head.Dst)
		if f.sent < f.granted+k.unscheduled {
			if pp.gate.TryPush(head) {
				pp.app.TryPop()
				f.sent++
				active = true
			}
			continue
		}
		// Credit-blocked: announce the cumulative backlog, rate-limited
		// per flow. Announcements travel through the gate and fabric
		// like data, so ordering with already-cleared packets holds.
		need := f.sent + uint64(pp.app.Len())
		if need > f.announced && now-f.lastReq >= k.reqInterval {
			req := packet.EncodeGrantReq(uint16(k.rank), head.Dst, uint8(pp.port), uint32(need))
			if pp.gate.TryPush(req) {
				f.announced = need
				f.lastReq = now
				active = true
			}
		}
	}
	return active
}

func (k *rdPacer) portByID(port int) *rdPacerPort {
	for _, pp := range k.ports {
		if pp.port == port {
			return pp
		}
	}
	return nil
}

func (k *rdPacer) IdleUntil(now int64) int64 {
	w := sim.Never
	for _, g := range k.grantIn {
		if g.CanPop() {
			return now
		}
	}
	for _, pp := range k.ports {
		head, ok := pp.app.Peek()
		if !ok {
			continue
		}
		if !pp.gate.CanPush() {
			pp.gate.WakeOnSpace(k.id) // the CKS draining the gate wakes us
			continue
		}
		if head.Op != packet.OpData {
			return now
		}
		f := pp.flow(head.Dst)
		if f.sent < f.granted+k.unscheduled {
			return now
		}
		if need := f.sent + uint64(pp.app.Len()); need > f.announced {
			t := f.lastReq + k.reqInterval
			if t <= now {
				return now
			}
			if t < w {
				w = t
			}
		}
	}
	return w
}

// rdFlowKey identifies a paced flow at its receiver.
type rdFlowKey struct {
	src  uint16
	port int
}

// rdDemand is the receiver-side view of one flow.
type rdDemand struct {
	need    uint64 // latest announced cumulative demand
	granted uint64 // cumulative allowance issued
}

// rdGranter is the per-device receiver scheduling kernel. It folds
// backlog announcements into per-flow demand and issues at most one
// grant per cycle, picking the flow with the smallest remaining demand
// (SRPT — Homa's preemptive shortest-message-first policy) whose
// destination endpoint has free buffer space. Space is computed from
// committed FIFO state only: capacity minus occupancy minus allowance
// already granted but not yet arrived (arrivals read via
// PushesCommitted, which is phase-stable across schedulers).
type rdGranter struct {
	rank        int
	id          sim.KernelID
	reqIn       []*sim.Fifo[packet.Packet]
	grantOut    *sim.Fifo[packet.Packet]
	recvOf      map[int]*sim.Fifo[packet.Packet]
	flows       map[rdFlowKey]*rdDemand
	order       []rdFlowKey // deterministic iteration (first-announcement order)
	batch       uint64
	unscheduled uint64
	grants      uint64
}

func (g *rdGranter) Name() string { return fmt.Sprintf("dev%d.rdgranter", g.rank) }

func (g *rdGranter) portCount() int { return len(g.reqIn) + 1 + len(g.recvOf) }

func (g *rdGranter) flow(key rdFlowKey) *rdDemand {
	f := g.flows[key]
	if f == nil {
		f = &rdDemand{}
		g.flows[key] = f
		g.order = append(g.order, key)
	}
	return f
}

// space returns how many more packets may be granted toward the given
// port without overcommitting its endpoint buffer. Every announced flow
// reserves granted + unscheduled slots — a sender may legally overshoot
// its allowance by the unscheduled window, and an overfilled port FIFO
// head-of-line-blocks the CKR for every other port, which can deadlock
// a receiver draining its ports in order. Arrivals (read via the
// phase-stable PushesCommitted) pay the reservation back, so the
// pessimism is transient per flow and bounded by one window plus one
// grant batch. Ports without a local receive endpoint are granted
// freely — the CKR will drop the data and count it, exactly as the
// sender-driven transport does.
func (g *rdGranter) space(port int) uint64 {
	rf := g.recvOf[port]
	if rf == nil {
		return g.batch
	}
	reserved := uint64(0)
	for key, f := range g.flows {
		if key.port == port {
			reserved += f.granted + g.unscheduled
		}
	}
	outstanding := uint64(0)
	if arrived := rf.PushesCommitted(); reserved > arrived {
		outstanding = reserved - arrived
	}
	free := uint64(rf.Cap()) - uint64(rf.Len())
	if outstanding >= free {
		return 0
	}
	return free - outstanding
}

func (g *rdGranter) Tick(now int64) bool {
	active := false
	for _, rq := range g.reqIn {
		for {
			p, ok := rq.TryPop()
			if !ok {
				break
			}
			active = true
			f := g.flow(rdFlowKey{src: p.Src, port: int(p.Port)})
			if t := uint64(packet.GrantTotal(p)); t > f.need {
				f.need = t
			}
		}
	}
	if g.grantOut.CanPush() {
		bestIdx := -1
		var bestRem, bestSpace uint64
		for i, key := range g.order {
			f := g.flows[key]
			if f.need <= f.granted {
				continue
			}
			rem := f.need - f.granted
			sp := g.space(key.port)
			if sp == 0 {
				continue
			}
			better := bestIdx < 0 || rem < bestRem
			if !better && rem == bestRem {
				bk := g.order[bestIdx]
				better = key.src < bk.src || (key.src == bk.src && key.port < bk.port)
			}
			if better {
				bestIdx, bestRem, bestSpace = i, rem, sp
			}
		}
		if bestIdx >= 0 {
			key := g.order[bestIdx]
			f := g.flows[key]
			n := bestRem
			if n > g.batch {
				n = g.batch
			}
			if n > bestSpace {
				n = bestSpace
			}
			f.granted += n
			g.grantOut.TryPush(packet.EncodeGrant(uint16(g.rank), key.src, uint8(key.port), uint32(f.granted)))
			g.grants++
			active = true
		}
	}
	return active
}

func (g *rdGranter) IdleUntil(now int64) int64 {
	for _, rq := range g.reqIn {
		if rq.CanPop() {
			return now
		}
	}
	for _, key := range g.order {
		f := g.flows[key]
		if f.need > f.granted && g.space(key.port) > 0 {
			if g.grantOut.CanPush() {
				return now
			}
			g.grantOut.WakeOnSpace(g.id) // the CKS draining a grant wakes us
			break
		}
	}
	return sim.Never
}
