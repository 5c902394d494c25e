package transport

import (
	"fmt"

	"repro/internal/packet"
	"repro/internal/routing"
	"repro/internal/sim"
)

// Device is one rank's transport layer: Q CKS/CKR pairs plus the FIFO
// fabric between them. All mutable state is local to the rank's engine
// (state crosses shards only via the netOut/netIn link boundaries), so
// every scheduler produces bit-identical runs (see DESIGN.md §9).
type Device struct {
	rank   int
	ifaces int
	eng    *sim.Engine

	// fifos is the rank's FIFO slab, in registration order: the network
	// ports (netOut q at 2q, netIn q at 2q+1), the CKS/CKR pairs
	// (cksToCkr q at 2Q+2q, ckrToCks q at 2Q+2q+1), then the crossbars
	// (see cross). netOut[q] is written by CKS_q and drained by the
	// outgoing link on interface q; netIn[q] is filled by the incoming
	// link and read by CKR_q.
	fifos []sim.Fifo[packet.Packet]

	// cks and ckr split the rank's kernel slab.
	cks []ck
	ckr []ck

	// ports[p] is the binding of port p (iface -1 when unbound).
	ports []portSlot

	dropped uint64 // packets addressed to unbound ports

	// Failover controls (see internal/core's fault manager): paused
	// freezes every CK of the device (host quiescing the shell during
	// reconfiguration); sendPaused freezes only the CKS kernels so
	// rescued packets can be injected ahead of new traffic without
	// reordering, while inbound delivery continues.
	paused     bool
	sendPaused bool
}

type portSlot struct {
	iface int
	recv  *sim.Fifo[packet.Packet]
}

// NetOut returns the outgoing network-port FIFO of interface q.
func (d *Device) NetOut(q int) *sim.Fifo[packet.Packet] { return &d.fifos[2*q] }

// NetIn returns the incoming network-port FIFO of interface q.
func (d *Device) NetIn(q int) *sim.Fifo[packet.Packet] { return &d.fifos[2*q+1] }

func (d *Device) cksToCkr(q int) *sim.Fifo[packet.Packet] { return &d.fifos[2*d.ifaces+2*q] }
func (d *Device) ckrToCks(q int) *sim.Fifo[packet.Packet] { return &d.fifos[2*d.ifaces+2*q+1] }

// cross returns the slab index of the crossbar FIFO CKS_a -> CKS_b
// (a != b); the CKR_a -> CKR_b FIFO follows it.
func (d *Device) cross(a, b int) int {
	if b > a {
		b--
	}
	return 4*d.ifaces + 2*(a*(d.ifaces-1)+b)
}

func (d *Device) interCKS(a, b int) *sim.Fifo[packet.Packet] { return &d.fifos[d.cross(a, b)] }
func (d *Device) interCKR(a, b int) *sim.Fifo[packet.Packet] { return &d.fifos[d.cross(a, b)+1] }

// fifoName formats the name of slab FIFO i.
func (d *Device) fifoName(i int) string {
	q := d.ifaces
	switch {
	case i < 2*q:
		return fmt.Sprintf("dev%d.%s%d", d.rank, [2]string{"netout", "netin"}[i%2], i/2)
	case i < 4*q:
		return fmt.Sprintf("dev%d.%s%d", d.rank, [2]string{"cks2ckr", "ckr2cks"}[i%2], i/2-q)
	}
	pair := (i - 4*q) / 2
	a, b := pair/(q-1), pair%(q-1)
	if b >= a {
		b++
	}
	k := [2]string{"cks", "ckr"}[i%2]
	return fmt.Sprintf("dev%d.%s%d-%s%d", d.rank, k, a, k, b)
}

// SetPaused freezes (or thaws) every communication kernel of the device.
// Freezing wakes parked kernels so they observe the reset cycle by cycle
// — a frozen span must not be mistaken for idle polling time.
func (d *Device) SetPaused(v bool) {
	d.paused = v
	d.wakeAll(d.cks)
	d.wakeAll(d.ckr)
}

// SetSendPaused freezes (or thaws) only the CKS kernels.
func (d *Device) SetSendPaused(v bool) {
	d.sendPaused = v
	d.wakeAll(d.cks)
}

func (d *Device) wakeAll(ks []ck) {
	for i := range ks {
		d.eng.WakeKernel(ks[i].id)
	}
}

// Shape returns the device's structural footprint.
func (d *Device) Shape() Shape {
	s := Shape{Fifos: len(d.fifos)}
	for _, ks := range [2][]ck{d.cks, d.ckr} {
		for i := range ks {
			s.CKPorts = append(s.CKPorts, len(ks[i].inputs)+ks[i].nOut)
		}
	}
	return s
}

// New builds the transport layer for one rank: it constructs the
// CKS/CKR fabric and registers its kernels with the engine. routes must
// cover the destination ranks this device will see; bindings list every
// application endpoint.
//
// The rank's FIFOs, its kernels and their input lists each come from one
// allocation, and no name is formatted until something asks for it.
func New(e *sim.Engine, rank, ifaces int, routes *routing.Routes, bindings []PortBinding, cfg Config) (*Device, error) {
	if ifaces <= 0 {
		return nil, fmt.Errorf("transport: device %d needs at least one interface", rank)
	}
	cfg.fill()
	d := &Device{rank: rank, ifaces: ifaces, eng: e}
	skipIdle := cfg.Arbiter == ArbiterSkipIdle

	// Port lookup table.
	maxPort := -1
	for _, b := range bindings {
		if b.Port < 0 || b.Port >= packet.MaxPorts {
			return nil, fmt.Errorf("transport: device %d port %d out of range [0,%d)", rank, b.Port, packet.MaxPorts)
		}
		maxPort = max(maxPort, b.Port)
	}
	d.ports = make([]portSlot, maxPort+1)
	for i := range d.ports {
		d.ports[i].iface = -1
	}
	sendInputs := 0
	for _, b := range bindings {
		if b.Iface < 0 || b.Iface >= ifaces {
			return nil, fmt.Errorf("transport: device %d port %d bound to invalid interface %d", rank, b.Port, b.Iface)
		}
		if d.ports[b.Port].iface >= 0 {
			return nil, fmt.Errorf("transport: device %d port %d bound twice", rank, b.Port)
		}
		d.ports[b.Port] = portSlot{iface: b.Iface, recv: b.Recv}
		if b.Send != nil {
			sendInputs++
		}
	}

	// Network ports, CKS/CKR pairs and the inter-kernel crossbars, in
	// one slab (see Device.fifos).
	d.fifos = sim.NewFifos[packet.Packet](e, 4*ifaces+2*ifaces*(ifaces-1),
		func(int) int { return cfg.CKDepth }, d.fifoName)

	kernels := make([]ck, 2*ifaces)
	d.cks, d.ckr = kernels[:ifaces:ifaces], kernels[ifaces:]
	// Every CK input list is a window of one array: each CKS has its
	// application inputs, the paired CKR and every other CKS; each CKR
	// the network port, the paired CKS and every other CKR.
	inputs := make([]*sim.Fifo[packet.Packet], 0, sendInputs+2*ifaces*ifaces+ifaces)

	// Build the CKS kernels.
	routeCKS := func(q int, p packet.Packet) *sim.Fifo[packet.Packet] {
		if int(p.Dst) == rank {
			return d.cksToCkr(q)
		}
		exit := routes.At(rank, int(p.Dst))
		if exit < 0 {
			d.dropped++
			return nil
		}
		if exit == q {
			return d.NetOut(q)
		}
		return d.interCKS(q, exit)
	}
	cksFrozen := func() bool { return d.paused || d.sendPaused }
	for q := 0; q < ifaces; q++ {
		from := len(inputs)
		for _, b := range bindings {
			if b.Iface == q && b.Send != nil {
				inputs = append(inputs, b.Send)
			}
		}
		inputs = append(inputs, d.ckrToCks(q))
		for j := 0; j < ifaces; j++ {
			if j != q {
				inputs = append(inputs, d.interCKS(j, q))
			}
		}
		in := inputs[from:len(inputs):len(inputs)]
		// Outputs: the network port, the paired CKR, and every other CKS.
		d.cks[q].init(rank, q, false, in, 1+1+(ifaces-1), cfg.R, skipIdle, routeCKS)
		d.cks[q].frozen = cksFrozen
		d.cks[q].attach(e)
	}

	// Build the CKR kernels.
	routeCKR := func(q int, p packet.Packet) *sim.Fifo[packet.Packet] {
		if int(p.Dst) != rank {
			// This rank is an intermediate hop: hand the packet to the
			// paired CKS for re-routing.
			return d.ckrToCks(q)
		}
		if int(p.Port) >= len(d.ports) || d.ports[p.Port].iface < 0 {
			d.dropped++
			return nil
		}
		slot := d.ports[p.Port]
		if slot.iface == q {
			if slot.recv == nil {
				d.dropped++
			}
			return slot.recv
		}
		return d.interCKR(q, slot.iface)
	}
	ckrFrozen := func() bool { return d.paused }
	for q := 0; q < ifaces; q++ {
		from := len(inputs)
		inputs = append(inputs, d.NetIn(q), d.cksToCkr(q))
		for j := 0; j < ifaces; j++ {
			if j != q {
				inputs = append(inputs, d.interCKR(j, q))
			}
		}
		in := inputs[from:len(inputs):len(inputs)]
		// Outputs: receive endpoints bound to q, the paired CKS, and
		// every other CKR.
		nApps := 0
		for _, b := range bindings {
			if b.Iface == q && b.Recv != nil {
				nApps++
			}
		}
		d.ckr[q].init(rank, q, true, in, nApps+1+(ifaces-1), cfg.R, skipIdle, routeCKR)
		d.ckr[q].frozen = ckrFrozen
		d.ckr[q].attach(e)
	}
	return d, nil
}

// Dropped returns the number of packets discarded because they addressed
// an unbound port or unreachable rank.
func (d *Device) Dropped() uint64 { return d.dropped }

// CountDropped adds externally discarded packets (the fault manager's
// unroutable rescues) to the device's drop counter.
func (d *Device) CountDropped(n uint64) { d.dropped += n }

// DrainExit empties and returns, oldest first, every packet already
// routed toward the given exit interface: the network-port FIFO, the
// CKS held registers targeting it, and the inter-CKS crossbar columns
// feeding it. The fault manager calls it (with the device paused) after
// a permanent link death, so stranded traffic can be re-injected on the
// regenerated routes in its original per-flow order.
func (d *Device) DrainExit(exit int) []packet.Packet {
	var out []packet.Packet
	drainFifo := func(f *sim.Fifo[packet.Packet]) {
		for {
			p, ok := f.TryPop()
			if !ok {
				return
			}
			out = append(out, p)
		}
	}
	drainHeld := func(k *ck, target *sim.Fifo[packet.Packet]) {
		if k.hasHeld && k.heldOut == target {
			out = append(out, k.held)
			k.hasHeld = false
		}
	}
	// Oldest first: the port FIFO, then the packet that failed to enter
	// it, then each crossbar column followed by its feeder's held slot.
	drainFifo(d.NetOut(exit))
	drainHeld(&d.cks[exit], d.NetOut(exit))
	for a := 0; a < d.ifaces; a++ {
		if a == exit {
			continue
		}
		drainFifo(d.interCKS(a, exit))
		drainHeld(&d.cks[a], d.interCKS(a, exit))
	}
	return out
}

// LockedOnto reports whether a CKS of the device holds a route lock whose
// remaining raw words leave through the given exit interface — straight
// into its network port or via the crossbar column feeding it. The fault
// manager asks after that interface's cable died: the words still to come
// have no header to re-route them by, so the fragment is lost. (The
// receiving side needs no such check: whatever its CKR is still waiting
// for is either in the dead link's loss set or behind such a CKS lock.)
func (d *Device) LockedOnto(exit int) bool {
	for a := range d.cks {
		k := &d.cks[a]
		if k.lockLeft > 0 && (k.lockOut == d.NetOut(exit) || a != exit && k.lockOut == d.interCKS(a, exit)) {
			return true
		}
	}
	return false
}

// Forwarded returns the total packets forwarded by all CKS and CKR
// kernels of this device.
func (d *Device) Forwarded() (cks, ckr uint64) {
	for i := range d.cks {
		cks += d.cks[i].forwarded
	}
	for i := range d.ckr {
		ckr += d.ckr[i].forwarded
	}
	return
}

// StreamFragments returns the total stream fragments cut through the
// device's kernels (each fragment counted once per kernel it crossed).
func (d *Device) StreamFragments() uint64 {
	var n uint64
	for i := range d.cks {
		n += d.cks[i].fragments
	}
	for i := range d.ckr {
		n += d.ckr[i].fragments
	}
	return n
}
