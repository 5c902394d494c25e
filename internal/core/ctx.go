package smi

import (
	"fmt"

	"repro/internal/fpga"
	"repro/internal/sim"
)

// Ctx is the execution context of one application kernel on one rank.
// All channel-open calls and cycle accounting go through it. A Ctx is
// bound to the cooperative process that runs the kernel body and must
// not be shared across kernels.
type Ctx struct {
	c    *Cluster
	rank int
	proc *sim.Proc

	// defPatience is the Ctx-level default per-operation deadline in
	// cycles (SetDefaultDeadline); 0 means operations block forever.
	defPatience int64

	// The engine-run steps of this kernel's bulk calls and loops, made on
	// first use and reused by every later call (one runs at a time).
	send *sendPath
	recv *recvPath
	loop *loopRun
}

// pushPath returns the kernel's send path, bound to ch.
func (x *Ctx) pushPath(ch *sendState) *sendPath {
	if x.send == nil {
		x.send = new(sendPath)
	}
	x.send.ch = ch
	return x.send
}

// popPath returns the kernel's receive path, bound to ch.
func (x *Ctx) popPath(ch *recvState) *recvPath {
	if x.recv == nil {
		x.recv = new(recvPath)
	}
	x.recv.ch = ch
	return x.recv
}

// Rank returns this kernel's global rank (one rank per FPGA, §2.2).
func (x *Ctx) Rank() int { return x.rank }

// Size returns the total number of ranks.
func (x *Ctx) Size() int { return len(x.c.ranks) }

// CommWorld returns the world communicator spanning all ranks.
func (x *Ctx) CommWorld() Comm { return x.c.world }

// CommRank returns this kernel's rank relative to the communicator, or
// -1 if the kernel's rank is not a member.
func (x *Ctx) CommRank(comm Comm) int {
	if !comm.Contains(x.rank) {
		return -1
	}
	return x.rank - comm.base
}

// Now returns the current simulation cycle.
func (x *Ctx) Now() int64 { return x.proc.Now() }

// Sleep consumes n clock cycles of pipelined computation.
func (x *Ctx) Sleep(n int64) { x.proc.Sleep(n) }

// Tick consumes one clock cycle.
func (x *Ctx) Tick() { x.proc.Tick() }

// Board returns the FPGA board model of this rank.
func (x *Ctx) Board() fpga.Board { return x.c.board }

// StreamMem consumes the cycles needed to stream the given number of
// bytes from or to the given number of local memory banks.
func (x *Ctx) StreamMem(bytes int64, banks int) {
	x.proc.Sleep(x.c.board.StreamCycles(bytes, banks))
}

// Stream is an intra-FPGA element FIFO connecting two application
// kernels on the same device, as HLS kernels are normally composed. SMI
// channels deliberately mirror this interface: "communication is
// programmed in the same way that data is normally streamed between
// intra-FPGA modules" (§3.1.1).
type Stream = sim.Fifo[uint64]

// NewStream creates an intra-FPGA element FIFO of the given capacity on
// rank 0. Streams must be created before Run. Clusters built with more
// than one shard must place streams with NewStreamOn: a stream is
// on-chip wiring and both of its endpoints live on one device.
func (c *Cluster) NewStream(name string, capacity int) *Stream {
	return c.NewStreamOn(0, name, capacity)
}

// NewStreamOn creates an intra-FPGA element FIFO of the given capacity
// on the given rank's device. Only kernels running on that rank may
// touch it — in sharded builds this is enforced structurally, since the
// FIFO lives on the rank's engine shard.
func (c *Cluster) NewStreamOn(rank int, name string, capacity int) *Stream {
	return sim.NewFifo[uint64](c.engFor(rank), "stream."+name, capacity)
}

// PushStream pushes an element onto an intra-FPGA stream (one cycle,
// blocking while full).
func (x *Ctx) PushStream(s *Stream, bits uint64) { s.PushProc(x.proc, bits) }

// PopStream pops an element from an intra-FPGA stream (one cycle,
// blocking while empty).
func (x *Ctx) PopStream(s *Stream) uint64 { return s.PopProc(x.proc) }

// endpointFor resolves and validates a port for a channel open call.
func (x *Ctx) endpointFor(port int, kind PortKind, dt Datatype, count int, comm Comm) (*endpoint, error) {
	if count <= 0 {
		return nil, fmt.Errorf("smi: rank %d port %d: count %d must be positive", x.rank, port, count)
	}
	if comm.size == 0 {
		return nil, fmt.Errorf("smi: rank %d port %d: empty communicator", x.rank, port)
	}
	if !comm.Contains(x.rank) {
		return nil, fmt.Errorf("smi: rank %d is not a member of %v", x.rank, comm)
	}
	ep, ok := x.c.ranks[x.rank].endpoint(port)
	if !ok {
		return nil, fmt.Errorf("smi: rank %d: port %d not declared in the program spec", x.rank, port)
	}
	if ep.spec.Kind != kind {
		return nil, fmt.Errorf("smi: rank %d port %d is a %v port, not %v", x.rank, port, ep.spec.Kind, kind)
	}
	if dt != ep.spec.Type {
		return nil, fmt.Errorf("smi: rank %d port %d carries %v, not %v", x.rank, port, ep.spec.Type, dt)
	}
	return ep, nil
}
