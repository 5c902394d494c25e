package smi

import (
	"fmt"

	"repro/internal/packet"
)

// Datatype is an SMI element type. The constants mirror the paper's
// SMI_INT, SMI_FLOAT, SMI_DOUBLE, SMI_CHAR and SMI_SHORT.
type Datatype = packet.Datatype

// Element datatypes.
const (
	Char   = packet.Char
	Short  = packet.Short
	Int    = packet.Int
	Float  = packet.Float
	Double = packet.Double
)

// Op is a reduction operation (SMI_ADD, SMI_MAX, SMI_MIN).
type Op uint8

// Reduction operations.
const (
	Add Op = iota
	Max
	Min

	numOps
)

func (o Op) String() string {
	switch o {
	case Add:
		return "SMI_ADD"
	case Max:
		return "SMI_MAX"
	case Min:
		return "SMI_MIN"
	default:
		return fmt.Sprintf("Op(%d)", uint8(o))
	}
}

// PortKind declares what kind of communication endpoint a port
// implements. Each collective operation "implies a distinct channel
// type, open channel operation, and communication primitive" (§3.2), and
// the hardware instantiated for a port depends on its kind.
type PortKind uint8

// Port kinds.
const (
	P2P PortKind = iota
	Bcast
	Reduce
	Scatter
	Gather

	numPortKinds
)

func (k PortKind) String() string {
	switch k {
	case P2P:
		return "p2p"
	case Bcast:
		return "bcast"
	case Reduce:
		return "reduce"
	case Scatter:
		return "scatter"
	case Gather:
		return "gather"
	default:
		return fmt.Sprintf("PortKind(%d)", uint8(k))
	}
}

// Mode selects the point-to-point transfer machinery of a port. The four
// modes are two orthogonal choices over one data path: whether payload
// travels as headerless 32-byte raw words behind OpStream fragment
// headers, and whether a handshake on the port's reverse direction gates
// the sender.
type Mode uint8

// Transfer modes.
const (
	// ModePacket is the paper's reference path (§3.3 eager, §4.2 packet
	// switching): every 32-byte packet carries its own 4-byte header and
	// flow control is buffering plus backpressure.
	ModePacket Mode = iota
	// ModeCredited adds the credit-based flow control §3.3 prescribes when
	// the buffer is smaller than the message, "to guarantee that the
	// communication occurring on a transient channel will not block the
	// transmission of other streaming messages": the receiver grants
	// BufferElems of initial credit and tops it up with OpCtl grants as
	// it drains, so the sender never commits more than the receiver can
	// buffer. The reverse direction of the port carries the grants, so
	// the port is half-duplex while a channel is open.
	ModeCredited
	// ModeCircuit is §4.2's circuit-switching alternative: the message is
	// one stream fragment — a single OpStream header with all
	// meta-information, then headerless payload words using the full 32
	// wire bytes (payload efficiency 32/32 instead of 28/32). Every
	// communication kernel on the path locks onto the message until it
	// completes, stalling other channels that share those kernels.
	ModeCircuit
	// ModeStreaming is the large-message mode: a message that fits
	// BufferElems goes eager exactly like ModePacket; a larger one first
	// completes a rendezvous (an OpCtl request, then a grant of the whole
	// message on the reverse direction, so the port is half-duplex) and
	// then travels as fragments of StreamBatch raw words, each behind its
	// own OpStream header, so kernels on the path release the route
	// between fragments.
	ModeStreaming

	numModes
)

func (m Mode) String() string {
	switch m {
	case ModePacket:
		return "packet"
	case ModeCredited:
		return "credited"
	case ModeCircuit:
		return "circuit"
	case ModeStreaming:
		return "streaming"
	default:
		return fmt.Sprintf("Mode(%d)", uint8(m))
	}
}

// ParseMode maps a wire name ("packet", "credited", "circuit",
// "streaming"; "" means packet) to a Mode.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "", "packet":
		return ModePacket, nil
	case "credited":
		return ModeCredited, nil
	case "circuit":
		return ModeCircuit, nil
	case "streaming":
		return ModeStreaming, nil
	default:
		return 0, fmt.Errorf("smi: unknown transfer mode %q (want packet, credited, circuit, or streaming)", s)
	}
}

// halfDuplex reports whether the port's reverse direction carries the
// receiver's grants while a channel is open.
func (m Mode) halfDuplex() bool { return m == ModeCredited || m == ModeStreaming }

// PortSpec declares one communication endpoint. Ports must be known when
// the cluster is built — the analog of the paper's requirement that "all
// ports must be known at compile time" so the code generator can lay
// down the FIFOs and support kernels connecting endpoints to the
// transport layer.
type PortSpec struct {
	// Port is the endpoint identifier, unique within the program.
	Port int
	// Kind selects the endpoint hardware (default P2P).
	Kind PortKind
	// Type is the element datatype the endpoint hardware is specialized
	// for (default Int). Channels opened on the port must match it.
	Type Datatype
	// ReduceOp is the reduction operation (Reduce ports only).
	ReduceOp Op
	// BufferElems is the endpoint FIFO capacity in elements — the
	// channel's asynchronicity degree k (§3.3): the sender may run ahead
	// of the receiver by up to k elements. Defaults to 64.
	BufferElems int
	// VecWidth is the datapath width of the attached application kernel
	// in elements per cycle (vectorized HLS kernels push/pop several
	// elements per clock). Defaults to 1.
	VecWidth int
	// CreditElems is the Reduce flow-control tile size C (§4.4): the
	// root holds an accumulation buffer of C elements and grants senders
	// one tile of credits at a time. Rounded up to a whole number of
	// packets. Defaults to 256. Reduce ports only.
	CreditElems int
	// Tree runs a Bcast or Reduce port's support kernel over the
	// binomial shape instead of the star of the paper's linear scheme:
	// replication and combining spread over inner nodes, bounding
	// per-node fan-out by log2 of the communicator size. (The paper
	// names tree schemes as the natural extension its reference
	// implementation lacks.)
	Tree bool
	// Mode selects the point-to-point transfer machinery (default
	// ModePacket; P2P ports only). See the Mode constants.
	Mode Mode
	// StreamBatch is the fragment size in raw wire words for ModeStreaming
	// ports: each fragment header pins the route for this many words
	// before competing channels get a polling turn. Larger batches
	// amortize the header further; smaller ones release shared kernels
	// sooner. Defaults to 16.
	StreamBatch int
	// Iface pins the endpoint to a specific CKS/CKR pair when PinIface
	// is set; otherwise ports are assigned round-robin across pairs.
	Iface    int
	PinIface bool
}

func (s *PortSpec) fill(index, ifaces int) {
	if s.Type == packet.Invalid {
		s.Type = Int
	}
	if s.BufferElems <= 0 {
		s.BufferElems = 64
	}
	if s.VecWidth <= 0 {
		s.VecWidth = 1
	}
	epp := s.Type.ElemsPerPacket()
	if s.CreditElems <= 0 {
		s.CreditElems = 256
	}
	// Round the credit tile up to whole packets so tile boundaries align
	// with packet boundaries.
	if rem := s.CreditElems % epp; rem != 0 {
		s.CreditElems += epp - rem
	}
	if s.StreamBatch <= 0 {
		s.StreamBatch = 16
	}
	if s.StreamBatch > packet.MaxStreamWords {
		s.StreamBatch = packet.MaxStreamWords
	}
	if !s.PinIface || s.Iface < 0 || s.Iface >= ifaces {
		s.Iface = index % ifaces
	}
}

// ProgramSpec is the set of SMI operations a program uses: the input the
// paper's metadata extractor produces and its code generator consumes.
type ProgramSpec struct {
	Ports []PortSpec
}

// Validate checks the program for well-formedness.
func (p *ProgramSpec) Validate() error {
	if len(p.Ports) == 0 {
		return fmt.Errorf("smi: program declares no ports")
	}
	seen := make(map[int]bool)
	for _, s := range p.Ports {
		if s.Port < 0 || s.Port >= packet.MaxPorts {
			return fmt.Errorf("smi: port %d out of range [0,%d)", s.Port, packet.MaxPorts)
		}
		if seen[s.Port] {
			return fmt.Errorf("smi: port %d declared twice", s.Port)
		}
		seen[s.Port] = true
		if s.Kind >= numPortKinds {
			return fmt.Errorf("smi: port %d has invalid kind %d", s.Port, s.Kind)
		}
		if s.Type != 0 && !s.Type.Valid() {
			return fmt.Errorf("smi: port %d has invalid datatype %d", s.Port, s.Type)
		}
		if s.Kind == Reduce && s.ReduceOp >= numOps {
			return fmt.Errorf("smi: port %d has invalid reduce op %d", s.Port, s.ReduceOp)
		}
		if s.Tree && s.Kind != Bcast && s.Kind != Reduce {
			return fmt.Errorf("smi: port %d: the tree shape exists only for bcast and reduce", s.Port)
		}
		if s.Mode >= numModes {
			return fmt.Errorf("smi: port %d has invalid transfer mode %d", s.Port, s.Mode)
		}
		if s.Mode != ModePacket && s.Kind != P2P {
			return fmt.Errorf("smi: port %d: %s mode applies to point-to-point ports only", s.Port, s.Mode)
		}
	}
	return nil
}

// Comm is a communicator: a contiguous group of global ranks.
// Communicators "can be established at runtime, and allow communication
// to be further organized into logical groups" (§3.1.1). Rank arguments
// to channel-open calls are relative to the communicator.
type Comm struct {
	base int
	size int
}

// Size returns the number of ranks in the communicator.
func (c Comm) Size() int { return c.size }

// Base returns the first global rank of the communicator.
func (c Comm) Base() int { return c.base }

// Global translates a communicator-relative rank to a global rank.
func (c Comm) Global(rank int) int { return c.base + rank }

// Contains reports whether the global rank belongs to the communicator.
func (c Comm) Contains(global int) bool {
	return global >= c.base && global < c.base+c.size
}

// Sub returns a sub-communicator of the given size starting at the given
// communicator-relative base rank.
func (c Comm) Sub(base, size int) (Comm, error) {
	if base < 0 || size <= 0 || base+size > c.size {
		return Comm{}, fmt.Errorf("smi: sub-communicator [%d,%d) outside parent of size %d", base, base+size, c.size)
	}
	return Comm{base: c.base + base, size: size}, nil
}

func (c Comm) String() string {
	return fmt.Sprintf("comm[%d..%d)", c.base, c.base+c.size)
}
