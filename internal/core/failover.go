package smi

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/link"
	"repro/internal/packet"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topology"
)

// cable pairs the two reliable directions of one physical connection.
type cable struct {
	conn   topology.Connection
	ab, ba *link.ReliableLink // A->B and B->A directions
	failed bool
}

// faultManager is the host-side failover controller for permanent link
// deaths. The paper computes routes offline and uploads tables without
// touching the bitstream (§4.3); this kernel models the same host loop
// reacting at runtime: when a link layer declares its cable dead, the
// manager quiesces the transport kernels ("held in reset" by the shell),
// recomputes provably deadlock-free up*/down* routes on the surviving
// wiring, verifies the channel dependency graph is acyclic, uploads the
// tables, rescues the dead cable's unacknowledged and stranded packets
// over the control plane (PCIe survives a QSFP cable failure), and
// resumes. The retransmission protocol's cumulative acks make the rescue
// exact: everything below the receiver's RxExpected was delivered once,
// everything at or above it was not — so no packet is lost or duplicated.
//
// Rescued packets are re-routed by their headers. A stream fragment the
// dead cable tore — circuit or streaming, it is the same fragment — has
// no such remedy: its headerless OpRaw words cannot be re-addressed, and
// the kernels upstream are locked onto the dead exit. Cut-through trades
// this robustness away (the trade-off §4.2 describes for multiplexing),
// so the manager declares the cluster failed with a cause naming the
// lost words, and every blocked operation returns ClusterFailed instead
// of deadlocking on, or mis-parsing, a stream with a hole in it. A death
// that lands between fragments or messages tears nothing and fails over
// like any packet traffic.
type faultManager struct {
	c            *Cluster
	surviving    *topology.Topology
	repairCycles int64
	// barrier marks the sharded build: the manager is not a kernel but a
	// sim.Coordinator the group drives at barriers (see AtBarrier), and
	// its primitives switch to the stopped-world variants.
	barrier bool

	state     int // one of fmIdle/fmRepair/fmRescue/fmFailed
	fail      *cable
	failStart int64
	repairEnd int64
	newRoutes *routing.Routes

	// One rescue queue per endpoint device of the dead cable, injected
	// one packet per device per cycle (the control-plane write rate).
	rescueRank  [2]int
	rescueQueue [2][]packet.Packet

	failovers      int
	failoverCycles int64
	rescued        uint64
	unroutable     uint64
	log            []fault.TimedFault
	err            error
}

const (
	fmIdle = iota
	fmRepair
	fmRescue
	fmFailed
)

func newFaultManager(c *Cluster, repairCycles int64) *faultManager {
	return &faultManager{c: c, surviving: c.cfg.Topology, repairCycles: repairCycles}
}

func (m *faultManager) Name() string { return "fault-manager" }

func (m *faultManager) logEvent(now int64, kind string) {
	m.log = append(m.log, fault.TimedFault{Cycle: now, Link: "manager", Kind: kind})
}

// Tick runs after every link kernel (registration order), so a death
// declared this cycle is handled this cycle.
func (m *faultManager) Tick(now int64) bool {
	switch m.state {
	case fmIdle:
		for _, cb := range m.c.cables {
			if !cb.failed && (cb.ab.Dead() || cb.ba.Dead()) {
				m.begin(now, cb)
				return true
			}
		}
		return false
	case fmRepair:
		if now >= m.repairEnd {
			m.swapAndRescue(now)
		}
		return true
	case fmRescue:
		m.injectRescues(now)
		if len(m.rescueQueue[0]) == 0 && len(m.rescueQueue[1]) == 0 {
			m.finish(now)
		}
		return true
	default: // fmFailed: the cluster stays quiesced; see fail().
		return false
	}
}

// NextAction implements sim.Coordinator: the next cycle the manager may
// need to act at, as an inclusive bound the group turns into a barrier.
// While idle that is the earliest possible link death: DeathBound is
// derived from each live transmitter's timer state and only moves later
// as the simulation progresses, so no engine can observe a death the
// barrier schedule would miss. During a repair the manager sleeps until
// the repair deadline; during a rescue it acts every cycle.
func (m *faultManager) NextAction(base int64) int64 {
	switch m.state {
	case fmIdle:
		bound := sim.Never
		for _, cb := range m.c.cables {
			if cb.failed {
				continue
			}
			if d := cb.ab.DeathBound(base); d < bound {
				bound = d
			}
			if d := cb.ba.DeathBound(base); d < bound {
				bound = d
			}
		}
		if bound >= sim.Never {
			return sim.Never
		}
		// Death at cycle d is observed by the barrier at d+1, which
		// reproduces the dense manager tick of cycle d.
		return bound + 1
	case fmRepair:
		return m.repairEnd + 1
	case fmRescue:
		return base + 1
	default: // fmFailed: quiesced for good
		return sim.Never
	}
}

// AtBarrier implements sim.Coordinator: with every engine stopped at a
// common clock, a tick at clock-1 reproduces exactly what the dense
// manager kernel (registered after every link kernel) did that cycle.
func (m *faultManager) AtBarrier(clock int64) { m.Tick(clock - 1) }

// Quiescent implements sim.Coordinator: in fmIdle and fmFailed the
// manager only ever reacts to engine activity, so a globally idle group
// is a real deadlock; in fmRepair/fmRescue the manager itself is the
// pending work.
func (m *faultManager) Quiescent() bool {
	return m.state == fmIdle || m.state == fmFailed
}

// begin parks the dead cable, freezes every transport kernel, and starts
// the repair clock. Route computation happens up front so an unroutable
// surviving topology fails fast.
func (m *faultManager) begin(now int64, cb *cable) {
	cb.failed = true
	cb.ab.Park()
	cb.ba.Park()
	m.fail = cb
	m.failStart = now
	m.surviving = m.surviving.Without(cb.conn)
	m.logEvent(now, "dead:"+cb.ab.Name())
	for _, rs := range m.c.ranks {
		rs.dev.SetPaused(true)
	}
	if !m.surviving.Connected() {
		m.declareFailed(now, fmt.Errorf("smi: failover after %s died: surviving topology is disconnected", cb.ab.Name()))
		return
	}
	nr, err := routing.Compute(m.surviving, routing.UpDown)
	if err == nil {
		err = routing.VerifyDeadlockFree(nr)
	}
	if err != nil {
		m.declareFailed(now, fmt.Errorf("smi: failover after %s died: %w", cb.ab.Name(), err))
		return
	}
	m.newRoutes = nr
	m.repairEnd = now + m.repairCycles
	m.state = fmRepair
	m.logEvent(now, "repair-start")
}

// declareFailed marks the cluster unrepairable (fmFailed). The transport
// stays quiesced, but every rank program blocked in a channel operation
// is woken with WaitAborted so its PushE/PopE returns ClusterFailed, and
// operations started afterwards fail at entry (Ctx.runtimeErr) — the
// application observes a typed error instead of a deadlock report.
func (m *faultManager) declareFailed(now int64, err error) {
	m.err = err
	m.state = fmFailed
	m.logEvent(now, "failed")
	// Wake every blocked proc at now+1, the cycle a dense-mode kernel's
	// CancelWaits would land on; in the sharded build this spans all
	// engines, stopped at the barrier.
	for _, e := range m.c.engs {
		e.CancelWaitsAt(now + 1)
	}
}

// swapAndRescue collects the dead cable's loss set, uploads the
// regenerated tables through the shared Routes pointer (every CK routes
// each packet at pop time, so the swap takes effect atomically between
// cycles), and resumes everything except the two endpoint devices' send
// sides — those stay quiesced until the rescued (oldest) packets have
// re-entered the network, preserving per-flow order. A loss set that
// shows a torn stream fragment fails the cluster instead.
func (m *faultManager) swapAndRescue(now int64) {
	cb := m.fail
	devA := m.c.ranks[cb.conn.A.Device].dev
	devB := m.c.ranks[cb.conn.B.Device].dev
	// Loss set per direction, oldest first: unacknowledged frames in the
	// retransmit buffer (RxExpected bounds what the far side delivered),
	// then packets already routed toward the dead exit but not yet
	// handed to the link.
	qa := cb.ab.Unacked(cb.ab.RxExpected())
	qa = append(qa, devA.DrainExit(cb.conn.A.Iface)...)
	qb := cb.ba.Unacked(cb.ba.RxExpected())
	qb = append(qb, devB.DrainExit(cb.conn.B.Iface)...)
	lostRaw := countRaw(qa) + countRaw(qb)
	locked := devA.LockedOnto(cb.conn.A.Iface) || devB.LockedOnto(cb.conn.B.Iface)
	if lostRaw > 0 || locked {
		m.declareFailed(now, fmt.Errorf("smi: failover after %s died: the cable tore a stream fragment (%d headerless raw words in its loss set, a send kernel still locked onto the dead interface: %t); raw words carry no address to re-route them by",
			cb.ab.Name(), lostRaw, locked))
		return
	}
	m.c.routes.CopyFrom(m.newRoutes)
	m.c.routeEpoch++
	m.logEvent(now, "tables-swapped")
	m.rescueRank = [2]int{cb.conn.A.Device, cb.conn.B.Device}
	m.rescueQueue = [2][]packet.Packet{qa, qb}
	for _, rs := range m.c.ranks {
		rs.dev.SetPaused(false)
	}
	devA.SetSendPaused(true)
	devB.SetSendPaused(true)
	m.state = fmRescue
	m.logEvent(now, fmt.Sprintf("rescue-start:%d+%d", len(qa), len(qb)))
}

// countRaw counts the headerless words in a loss set.
func countRaw(q []packet.Packet) int {
	n := 0
	for _, p := range q {
		if p.Op == packet.OpRaw {
			n++
		}
	}
	return n
}

// injectRescues feeds one rescued packet per endpoint device per cycle
// into the network-port FIFO its new route selects. A full FIFO retries
// next cycle; an unroutable packet (destination cut off) is dropped and
// counted.
func (m *faultManager) injectRescues(now int64) {
	for i := 0; i < 2; i++ {
		q := m.rescueQueue[i]
		if len(q) == 0 {
			continue
		}
		p := q[0]
		rank := m.rescueRank[i]
		dev := m.c.ranks[rank].dev
		exit := routing.Unreachable
		if int(p.Dst) < m.c.routes.Devices {
			exit = m.c.routes.At(rank, int(p.Dst))
		}
		if exit < 0 {
			dev.CountDropped(1)
			m.unroutable++
			m.rescueQueue[i] = q[1:]
			continue
		}
		if m.push(dev.NetOut(exit), p) {
			m.rescued++
			m.rescueQueue[i] = q[1:]
		}
	}
}

// push injects one rescued packet: a plain registered write from the
// manager's kernel tick, or the barrier-time equivalent when the group
// drives the manager with every engine stopped one cycle later.
func (m *faultManager) push(f *sim.Fifo[packet.Packet], p packet.Packet) bool {
	if m.barrier {
		return f.PushAtBarrier(p)
	}
	return f.TryPush(p)
}

// finish resumes the endpoint devices' send sides and forgives the RTO
// rounds the global pause inflicted on surviving links.
func (m *faultManager) finish(now int64) {
	cb := m.fail
	m.c.ranks[cb.conn.A.Device].dev.SetSendPaused(false)
	m.c.ranks[cb.conn.B.Device].dev.SetSendPaused(false)
	for _, other := range m.c.cables {
		if !other.failed {
			other.ab.ForgiveTimeouts(now)
			other.ba.ForgiveTimeouts(now)
		}
	}
	m.failovers++
	m.failoverCycles += now - m.failStart
	m.fail = nil
	m.state = fmIdle
	m.logEvent(now, "resume")
}
