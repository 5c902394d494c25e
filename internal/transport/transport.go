// Package transport implements SMI's transport layer: the send (CKS)
// and receive (CKR) communication kernels that move network packets
// between application endpoints and the device's network interfaces
// (paper §4.2–4.3).
//
// One CKS/CKR pair manages each network interface, avoiding any single
// centralization point. The kernels are interconnected as in the paper's
// Fig 7:
//
//	CKS_q inputs:  application send endpoints bound to q, the paired
//	               CKR_q, and every other CKS_j (j != q).
//	CKS_q outputs: network port q, the paired CKR_q (local delivery),
//	               and every other CKS_j.
//	CKR_q inputs:  network port q, the paired CKS_q, and every other
//	               CKR_j.
//	CKR_q outputs: application receive endpoints bound to q, the paired
//	               CKS_q (forwarding when this rank is an intermediate
//	               hop), and every other CKR_j.
//
// Inputs are served with the configurable polling scheme of §4.3: a
// kernel keeps reading from the same connection up to R times while data
// is available before moving on; advancing to the next connection costs
// one cycle.
//
// The transport is sender-driven: senders inject eagerly, and flow
// control is buffering, link backpressure and the §3.3
// application-level credit protocol.
package transport

import (
	"fmt"

	"repro/internal/packet"
	"repro/internal/sim"
)

// Arbiter selects the CK input-arbitration scheme.
type Arbiter uint8

const (
	// ArbiterRoundRobin is the literal round-robin poller: advancing
	// over an idle input costs one cycle. It reproduces the paper's
	// Table 4 injection numbers exactly.
	ArbiterRoundRobin Arbiter = iota
	// ArbiterSkipIdle is a priority-encoder arbiter that jumps straight
	// to the next input holding data. It reproduces the paper's Fig 9
	// bandwidth (91% of payload peak) instead — the published RTL
	// evidently behaves in between (see EXPERIMENTS.md D1).
	ArbiterSkipIdle
)

func (a Arbiter) String() string {
	switch a {
	case ArbiterRoundRobin:
		return "round-robin"
	case ArbiterSkipIdle:
		return "skip-idle"
	default:
		return fmt.Sprintf("Arbiter(%d)", uint8(a))
	}
}

// ParseArbiter maps a wire name ("round-robin", "skip-idle"; "" means
// round-robin) to an arbiter.
func ParseArbiter(s string) (Arbiter, error) {
	switch s {
	case "", "round-robin":
		return ArbiterRoundRobin, nil
	case "skip-idle":
		return ArbiterSkipIdle, nil
	default:
		return 0, fmt.Errorf("transport: unknown arbiter %q (want round-robin or skip-idle)", s)
	}
}

// Config tunes the transport layer of one device.
type Config struct {
	// R is the polling factor: consecutive reads from one input while
	// data is available. The paper's microbenchmarks use R = 8.
	R int
	// CKDepth is the depth of the FIFOs between communication kernels
	// and of the network-port FIFOs.
	CKDepth int
	// Arbiter selects the CK input-arbitration scheme (default
	// ArbiterRoundRobin).
	Arbiter Arbiter
}

// DefaultConfig mirrors the paper's experimental configuration.
func DefaultConfig() Config { return Config{R: 8, CKDepth: 8} }

func (c *Config) fill() {
	if c.R <= 0 {
		c.R = 8
	}
	if c.CKDepth <= 0 {
		c.CKDepth = 8
	}
}

// PortBinding wires one application endpoint (one SMI port) to the
// transport layer. Ports must be known when the device is built — "all
// ports must be known at compile time, such that, within each rank, the
// necessary hardware connections ... can be instantiated" (§2.2).
type PortBinding struct {
	Port  int
	Iface int // CKS/CKR pair the endpoint's FIFOs attach to

	// Send carries packets from the application to CKS_Iface; Recv
	// carries packets from CKR_Iface to the application. Either may be
	// nil for one-directional endpoints.
	Send *sim.Fifo[packet.Packet]
	Recv *sim.Fifo[packet.Packet]
}

// Shape describes the structural footprint of a device's transport
// layer, the input to the resource model (internal/resources).
type Shape struct {
	// Fifos is the number of internal FIFOs (network ports, CKS/CKR
	// pairs, inter-kernel crossbars), excluding application endpoints.
	Fifos int
	// CKPorts lists, for each communication kernel, its input+output
	// port count (CKS kernels first, then CKR).
	CKPorts []int
}
