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
	ifaces int

	// netOut[q] is written by CKS_q and drained by the outgoing link on
	// interface q; netIn[q] is filled by the incoming link and read by
	// CKR_q.
	netOut []*sim.Fifo[packet.Packet]
	netIn  []*sim.Fifo[packet.Packet]

	cks []*ck
	ckr []*ck

	eng    *sim.Engine
	cksIDs []sim.KernelID
	ckrIDs []sim.KernelID

	// interCKS[a][b] carries packets CKS_a -> CKS_b (nil on the
	// diagonal); retained for the failover drain.
	interCKS [][]*sim.Fifo[packet.Packet]

	numFifos int // internal FIFOs instantiated (excluding app endpoints)

	dropped uint64 // packets addressed to unbound ports

	// Failover controls (see internal/core's fault manager): paused
	// freezes every CK of the device (host quiescing the shell during
	// reconfiguration); sendPaused freezes only the CKS kernels so
	// rescued packets can be injected ahead of new traffic without
	// reordering, while inbound delivery continues.
	paused     bool
	sendPaused bool
}

// NetOut returns the outgoing network-port FIFO of interface q.
func (d *Device) NetOut(q int) *sim.Fifo[packet.Packet] { return d.netOut[q] }

// NetIn returns the incoming network-port FIFO of interface q.
func (d *Device) NetIn(q int) *sim.Fifo[packet.Packet] { return d.netIn[q] }

// SetPaused freezes (or thaws) every communication kernel of the device.
// Freezing wakes parked kernels so they observe the reset cycle by cycle
// — a frozen span must not be mistaken for idle polling time.
func (d *Device) SetPaused(v bool) {
	d.paused = v
	d.wakeAll(d.cksIDs)
	d.wakeAll(d.ckrIDs)
}

// SetSendPaused freezes (or thaws) only the CKS kernels.
func (d *Device) SetSendPaused(v bool) {
	d.sendPaused = v
	d.wakeAll(d.cksIDs)
}

func (d *Device) wakeAll(ids []sim.KernelID) {
	for _, id := range ids {
		d.eng.WakeKernel(id)
	}
}

// Shape returns the device's structural footprint.
func (d *Device) Shape() Shape {
	s := Shape{Fifos: d.numFifos}
	for _, k := range d.cks {
		s.CKPorts = append(s.CKPorts, len(k.inputs)+k.nOut)
	}
	for _, k := range d.ckr {
		s.CKPorts = append(s.CKPorts, len(k.inputs)+k.nOut)
	}
	return s
}

// New builds the transport layer for one rank: it constructs the
// CKS/CKR fabric and registers its kernels with the engine. routes must
// cover the destination ranks this device will see; bindings list every
// application endpoint.
func New(e *sim.Engine, rank, ifaces int, routes *routing.Routes, bindings []PortBinding, cfg Config) (*Device, error) {
	if ifaces <= 0 {
		return nil, fmt.Errorf("transport: device %d needs at least one interface", rank)
	}
	cfg.fill()
	d := &Device{ifaces: ifaces, eng: e}
	skipIdle := cfg.Arbiter == ArbiterSkipIdle

	nf := func(kind string, q int) *sim.Fifo[packet.Packet] {
		d.numFifos++
		return sim.NewFifo[packet.Packet](e, fmt.Sprintf("dev%d.%s%d", rank, kind, q), cfg.CKDepth)
	}

	// Network port FIFOs.
	for q := 0; q < ifaces; q++ {
		d.netOut = append(d.netOut, nf("netout", q))
		d.netIn = append(d.netIn, nf("netin", q))
	}

	// Pairwise FIFOs.
	cksToCkr := make([]*sim.Fifo[packet.Packet], ifaces) // CKS_q -> CKR_q
	ckrToCks := make([]*sim.Fifo[packet.Packet], ifaces) // CKR_q -> CKS_q
	for q := 0; q < ifaces; q++ {
		cksToCkr[q] = nf("cks2ckr", q)
		ckrToCks[q] = nf("ckr2cks", q)
	}
	// Inter-kernel crossbars: interCKS[a][b] carries packets CKS_a ->
	// CKS_b, likewise for CKR.
	interCKS := make([][]*sim.Fifo[packet.Packet], ifaces)
	interCKR := make([][]*sim.Fifo[packet.Packet], ifaces)
	for a := 0; a < ifaces; a++ {
		interCKS[a] = make([]*sim.Fifo[packet.Packet], ifaces)
		interCKR[a] = make([]*sim.Fifo[packet.Packet], ifaces)
		for b := 0; b < ifaces; b++ {
			if a == b {
				continue
			}
			interCKS[a][b] = sim.NewFifo[packet.Packet](e, fmt.Sprintf("dev%d.cks%d-cks%d", rank, a, b), cfg.CKDepth)
			interCKR[a][b] = sim.NewFifo[packet.Packet](e, fmt.Sprintf("dev%d.ckr%d-ckr%d", rank, a, b), cfg.CKDepth)
			d.numFifos += 2
		}
	}

	d.interCKS = interCKS

	// Port lookup tables.
	portIface := make(map[int]int)
	portRecv := make(map[int]*sim.Fifo[packet.Packet])
	for _, b := range bindings {
		if b.Iface < 0 || b.Iface >= ifaces {
			return nil, fmt.Errorf("transport: device %d port %d bound to invalid interface %d", rank, b.Port, b.Iface)
		}
		if _, dup := portIface[b.Port]; dup {
			return nil, fmt.Errorf("transport: device %d port %d bound twice", rank, b.Port)
		}
		portIface[b.Port] = b.Iface
		if b.Recv != nil {
			portRecv[b.Port] = b.Recv
		}
	}

	// Build the CKS kernels.
	for q := 0; q < ifaces; q++ {
		q := q
		var inputs []*sim.Fifo[packet.Packet]
		var names []string
		for _, b := range bindings {
			if b.Iface == q && b.Send != nil {
				inputs = append(inputs, b.Send)
				names = append(names, fmt.Sprintf("app:%d", b.Port))
			}
		}
		inputs = append(inputs, ckrToCks[q])
		names = append(names, "pair-ckr")
		for j := 0; j < ifaces; j++ {
			if j != q {
				inputs = append(inputs, interCKS[j][q])
				names = append(names, fmt.Sprintf("cks%d", j))
			}
		}
		route := func(p packet.Packet) *sim.Fifo[packet.Packet] {
			if int(p.Dst) == rank {
				return cksToCkr[q]
			}
			exit := routes.At(rank, int(p.Dst))
			if exit < 0 {
				d.dropped++
				return nil
			}
			if exit == q {
				return d.netOut[q]
			}
			return interCKS[q][exit]
		}
		// Outputs: the network port, the paired CKR, and every other CKS.
		k := newCK(fmt.Sprintf("dev%d.cks%d", rank, q), inputs, names, 1+1+(ifaces-1), cfg.R, skipIdle, route)
		k.frozen = func() bool { return d.paused || d.sendPaused }
		d.cks = append(d.cks, k)
		d.cksIDs = append(d.cksIDs, k.attach(e))
	}

	// Build the CKR kernels.
	for q := 0; q < ifaces; q++ {
		q := q
		inputs := []*sim.Fifo[packet.Packet]{d.netIn[q], cksToCkr[q]}
		names := []string{"net", "pair-cks"}
		for j := 0; j < ifaces; j++ {
			if j != q {
				inputs = append(inputs, interCKR[j][q])
				names = append(names, fmt.Sprintf("ckr%d", j))
			}
		}
		route := func(p packet.Packet) *sim.Fifo[packet.Packet] {
			if int(p.Dst) != rank {
				// This rank is an intermediate hop: hand the packet to
				// the paired CKS for re-routing.
				return ckrToCks[q]
			}
			target, ok := portIface[int(p.Port)]
			if !ok {
				d.dropped++
				return nil
			}
			if target == q {
				f := portRecv[int(p.Port)]
				if f == nil {
					d.dropped++
				}
				return f
			}
			return interCKR[q][target]
		}
		// Outputs: receive endpoints bound to q, the paired CKS, and
		// every other CKR.
		nApps := 0
		for _, b := range bindings {
			if b.Iface == q && b.Recv != nil {
				nApps++
			}
		}
		k := newCK(fmt.Sprintf("dev%d.ckr%d", rank, q), inputs, names, nApps+1+(ifaces-1), cfg.R, skipIdle, route)
		k.frozen = func() bool { return d.paused }
		d.ckr = append(d.ckr, k)
		d.ckrIDs = append(d.ckrIDs, k.attach(e))
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
	drainFifo(d.netOut[exit])
	drainHeld(d.cks[exit], d.netOut[exit])
	for a := 0; a < d.ifaces; a++ {
		if a == exit || d.interCKS[a][exit] == nil {
			continue
		}
		drainFifo(d.interCKS[a][exit])
		drainHeld(d.cks[a], d.interCKS[a][exit])
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
	for a, k := range d.cks {
		if k.lockLeft > 0 && (k.lockOut == d.netOut[exit] || a != exit && k.lockOut == d.interCKS[a][exit]) {
			return true
		}
	}
	return false
}

// Forwarded returns the total packets forwarded by all CKS and CKR
// kernels of this device.
func (d *Device) Forwarded() (cks, ckr uint64) {
	for _, k := range d.cks {
		cks += k.forwarded
	}
	for _, k := range d.ckr {
		ckr += k.forwarded
	}
	return
}

// StreamFragments returns the total stream fragments cut through the
// device's kernels (each fragment counted once per kernel it crossed).
func (d *Device) StreamFragments() uint64 {
	var n uint64
	for _, k := range d.cks {
		n += k.fragments
	}
	for _, k := range d.ckr {
		n += k.fragments
	}
	return n
}
