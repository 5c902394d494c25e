package smi

import (
	"fmt"

	"repro/internal/packet"
	"repro/internal/sim"
)

// supportKernel coordinates one collective port at one rank (paper
// §4.4). It sits between the application endpoint FIFOs and the
// CKS/CKR pair the port is bound to, and implements the linear
// collective schemes with their synchronization protocols:
//
//   - Bcast/Scatter (one-to-all): receiving ranks signal readiness with
//     a SYNC packet before the root streams data toward them, once per
//     rank and round.
//   - Gather (all-to-one): the root grants each source rank its turn in
//     rank order.
//   - Reduce (all-to-one): credit-based flow control with a C-element
//     accumulation buffer at the root; contributors may run one tile
//     ahead and receive a new credit each time the root flushes a tile.
//
// Both root and non-root behavior is instantiated at every rank so the
// root can be chosen dynamically; the kernel learns root, count, and
// communicator from an OpConfig packet its local application pushes when
// opening the channel, then returns to idle when the collective
// completes, ready for the next round.
type supportKernel struct {
	name string
	id   sim.KernelID
	rank int
	spec PortSpec
	epp  int

	appIn  *sim.Fifo[packet.Packet] // application -> support
	appOut *sim.Fifo[packet.Packet] // support -> application
	netOut *sim.Fifo[packet.Packet] // support -> CKS
	netIn  *sim.Fifo[packet.Packet] // CKR -> support

	state supState
	cfg   packet.Config
	root  int // global root rank of the current round
	base  int // communicator base
	size  int // communicator size
	count int // elements (per rank) in the current round

	// Protocol counters, persistent across rounds: early SYNCs/credits
	// for the next round are absorbed here instead of clogging CKR.
	syncCount [packet.MaxRanks]int
	credits   int

	// Streaming state.
	remaining int           // elements left in the current phase
	member    int           // member index being served (root-serve states)
	granted   bool          // gather root: grant sent to current member
	dup       packet.Packet // bcast root: packet being replicated
	dupValid  bool
	dupNext   int // next member index to copy dup to

	// Tree collective state.
	parentG   int   // parent global rank (-1 at the root)
	childrenG []int // child global ranks
	upGranted int   // elements the parent has allowed upward (tree reduce)

	// Reduce state.
	tile      []uint64 // accumulation buffer (C elements)
	pos       []int    // per-member elements contributed to current tile
	tileElems int      // size of the current tile
	done      int      // elements fully reduced so far
	flushPos  int      // elements flushed from the current tile
	creditTo  int      // member index to send the next credit to
	sendAllow int      // non-root reduce: elements allowed to send

	absorbed bool // a protocol packet was consumed this cycle
	busy     bool // the last tick made progress

	bad uint64 // protocol violations observed
}

type supState uint8

const (
	supIdle supState = iota

	supBcastWaitReady
	supBcastStream
	supBcastSendSync
	supBcastForward

	supReduceCollect
	supReduceCredit
	supReduceSend

	supScatterRoot
	supScatterSendSync
	supScatterForward

	supGatherRoot
	supGatherWaitGrant
	supGatherSend

	supTBcastSync
	supTBcastStream
	supTBcastForward
	supTReduceCollect
	supTReduceCredit
)

func newSupportKernel(name string, rank int, spec PortSpec, appIn, appOut, netOut, netIn *sim.Fifo[packet.Packet]) *supportKernel {
	return &supportKernel{
		name: name, rank: rank, spec: spec, epp: spec.Type.ElemsPerPacket(),
		appIn: appIn, appOut: appOut, netOut: netOut, netIn: netIn,
	}
}

func (s *supportKernel) Name() string { return s.name }

// popNet pops one packet from the network side, absorbing protocol
// packets (SYNC, CREDIT) into their counters. It returns a data packet,
// or ok=false if none was consumed this cycle.
func (s *supportKernel) popNet() (packet.Packet, bool) {
	p, ok := s.netIn.TryPop()
	if !ok {
		return packet.Packet{}, false
	}
	switch p.Op {
	case packet.OpSyncReady:
		s.syncCount[p.Src]++
		s.absorbed = true
		return packet.Packet{}, false
	case packet.OpCredit:
		s.credits++
		s.absorbed = true
		return packet.Packet{}, false
	case packet.OpData:
		return p, true
	default:
		s.bad++
		s.absorbed = true
		return packet.Packet{}, false
	}
}

// drainProtocol absorbs any waiting SYNC/CREDIT packet without consuming
// data. Returns true if it popped something.
func (s *supportKernel) drainProtocol() bool {
	p, ok := s.netIn.Peek()
	if !ok || p.Op == packet.OpData {
		return false
	}
	s.netIn.TryPop()
	s.absorbed = true
	switch p.Op {
	case packet.OpSyncReady:
		s.syncCount[p.Src]++
	case packet.OpCredit:
		s.credits++
	default:
		s.bad++
	}
	return true
}

// protocolPacket builds a SYNC or CREDIT packet to dst.
func (s *supportKernel) protocolPacket(op packet.Op, dst int) packet.Packet {
	return packet.Packet{
		Src: uint16(s.rank), Dst: uint16(dst), Port: uint8(s.spec.Port), Op: op,
	}
}

// memberRank maps a member index (0..size-1) to a global rank.
func (s *supportKernel) memberRank(i int) int { return s.base + i }

// Tick advances the support kernel one cycle. At most one packet is
// consumed and one produced per cycle, matching a hardware kernel with
// one input and one output port active per clock. Absorbing a protocol
// packet counts as activity even when the state handler reports none —
// the absorbed credit or sync may enable progress next cycle.
func (s *supportKernel) Tick(now int64) bool {
	s.absorbed = false
	s.busy = s.tickState() || s.absorbed
	// A full output stalls the kernel until the application or the CKS
	// pops it.
	if !s.appOut.CanPush() {
		s.appOut.WakeOnSpace(s.id)
	}
	if !s.netOut.CanPush() {
		s.netOut.WakeOnSpace(s.id)
	}
	return s.busy
}

// IdleUntil keeps the kernel hot while it makes progress and parks it
// after an inactive tick: the state machine is a pure function of its
// four FIFOs — it owns no timers — so an inactive tick repeats until a
// commit on an inbound FIFO (see NewCluster) or a pop of a full outbound
// one (armed in Tick) wakes it.
func (s *supportKernel) IdleUntil(now int64) int64 {
	if s.busy {
		return now
	}
	return sim.Never
}

func (s *supportKernel) tickState() bool {
	switch s.state {
	case supIdle:
		return s.tickIdle()
	case supBcastWaitReady:
		return s.tickBcastWaitReady()
	case supBcastStream:
		return s.tickBcastStream()
	case supBcastSendSync, supScatterSendSync:
		return s.tickSendSync()
	case supBcastForward, supScatterForward:
		return s.tickForwardNetToApp()
	case supReduceCollect:
		return s.tickReduceCollect()
	case supReduceCredit:
		return s.tickReduceCredit()
	case supReduceSend:
		return s.tickReduceSend()
	case supScatterRoot:
		return s.tickScatterRoot()
	case supGatherRoot:
		return s.tickGatherRoot()
	case supGatherWaitGrant:
		return s.tickGatherWaitGrant()
	case supGatherSend:
		return s.tickGatherSend()
	case supTBcastSync:
		return s.tickTBcastSync()
	case supTBcastStream:
		return s.tickTBcastStream()
	case supTBcastForward:
		return s.tickTBcastForward()
	case supTReduceCollect:
		return s.tickTReduceCollect()
	case supTReduceCredit:
		return s.tickTReduceCredit()
	default:
		panic(fmt.Sprintf("smi: support kernel %s in invalid state %d", s.name, s.state))
	}
}

func (s *supportKernel) tickIdle() bool {
	// Keep protocol packets from clogging the receive path while the
	// local application has not opened its channel yet.
	if s.drainProtocol() {
		return true
	}
	p, ok := s.appIn.TryPop()
	if !ok {
		return false
	}
	if p.Op != packet.OpConfig {
		s.bad++
		return true
	}
	cfg := packet.DecodeConfig(p)
	s.cfg = cfg
	s.root = int(cfg.Root)
	s.base = int(cfg.Base)
	s.size = int(cfg.Size)
	s.count = int(cfg.Count)
	s.remaining = s.count
	isRoot := s.rank == s.root

	switch s.spec.Kind {
	case Bcast:
		if s.spec.Tree {
			s.setupTree()
			s.state = supTBcastSync
			break
		}
		if isRoot {
			s.state = supBcastWaitReady
		} else {
			s.state = supBcastSendSync
		}
	case Reduce:
		s.done = 0
		if s.spec.Tree {
			s.setupTree()
			if cap(s.tile) < s.spec.CreditElems {
				s.tile = make([]uint64, s.spec.CreditElems)
			}
			s.upGranted = s.nextTileSize(0)
			s.startTreeReduceTile()
			s.state = supTReduceCollect
			break
		}
		if isRoot {
			if cap(s.tile) < s.spec.CreditElems {
				s.tile = make([]uint64, s.spec.CreditElems)
				s.pos = make([]int, s.size)
			}
			s.pos = s.pos[:0]
			for i := 0; i < s.size; i++ {
				s.pos = append(s.pos, 0)
			}
			s.startReduceTile()
			s.state = supReduceCollect
		} else {
			s.sendAllow = s.nextTileSize(0)
			s.state = supReduceSend
		}
	case Scatter:
		if isRoot {
			s.member = 0
			s.granted = false
			s.remaining = s.count
			s.state = supScatterRoot
		} else {
			s.state = supScatterSendSync
		}
	case Gather:
		if isRoot {
			s.member = 0
			s.granted = false
			s.remaining = s.count
			s.state = supGatherRoot
		} else {
			s.state = supGatherWaitGrant
		}
	default:
		s.bad++
		s.state = supIdle
	}
	return true
}

// --- Bcast ---

func (s *supportKernel) tickBcastWaitReady() bool {
	if s.drainProtocol() {
		return true
	}
	for i := 0; i < s.size; i++ {
		m := s.memberRank(i)
		if m != s.root && s.syncCount[m] < 1 {
			return false // still waiting for a ready notification
		}
	}
	for i := 0; i < s.size; i++ {
		m := s.memberRank(i)
		if m != s.root {
			s.syncCount[m]--
		}
	}
	s.dupValid = false
	s.state = supBcastStream
	return true
}

// tickBcastStream replicates each data packet from the root application
// to every other member, one copy per cycle (the linear scheme: root
// egress bandwidth divides by the member count).
func (s *supportKernel) tickBcastStream() bool {
	s.drainProtocol()
	if !s.dupValid {
		p, ok := s.appIn.TryPop()
		if !ok {
			return false
		}
		if p.Op != packet.OpData {
			s.bad++
			return true
		}
		s.dup = p
		s.dupValid = true
		s.dupNext = 0
	}
	// Skip the root's own member slot.
	for s.dupNext < s.size && s.memberRank(s.dupNext) == s.root {
		s.dupNext++
	}
	if s.dupNext >= s.size {
		s.remaining -= int(s.dup.Count)
		s.dupValid = false
		if s.remaining <= 0 {
			s.state = supIdle
		}
		return true
	}
	out := s.dup
	out.Dst = uint16(s.memberRank(s.dupNext))
	out.Src = uint16(s.rank)
	if s.netOut.TryPush(out) {
		s.dupNext++
	}
	return true
}

// tickSendSync sends the readiness notification to the root, then starts
// forwarding incoming data to the application (Bcast and Scatter share
// this non-root behavior).
func (s *supportKernel) tickSendSync() bool {
	if s.netOut.TryPush(s.protocolPacket(packet.OpSyncReady, s.root)) {
		if s.state == supBcastSendSync {
			s.state = supBcastForward
		} else {
			s.state = supScatterForward
		}
	}
	return true
}

// tickForwardNetToApp moves data packets from the network to the local
// application until the message completes.
func (s *supportKernel) tickForwardNetToApp() bool {
	if !s.appOut.CanPush() {
		// Blocked on the application: no progress this cycle.
		return false
	}
	p, ok := s.popNet()
	if !ok {
		return false
	}
	if int(p.Src) != s.root {
		s.bad++
		return true
	}
	s.appOut.TryPush(p)
	s.remaining -= int(p.Count)
	if s.remaining <= 0 {
		s.state = supIdle
	}
	return true
}

// --- Reduce ---

// nextTileSize returns the size in elements of the tile starting after
// `done` reduced elements.
func (s *supportKernel) nextTileSize(done int) int {
	left := s.count - done
	if left > s.spec.CreditElems {
		return s.spec.CreditElems
	}
	return left
}

func (s *supportKernel) startReduceTile() {
	s.tileElems = s.nextTileSize(s.done)
	for i := range s.pos {
		s.pos[i] = 0
	}
	for i := 0; i < s.tileElems; i++ {
		s.tile[i] = 0
	}
	s.flushPos = 0
	s.creditTo = 0
}

// accumulate folds a contribution packet from global rank src into the
// tile buffer.
func (s *supportKernel) accumulate(p packet.Packet, src int) {
	mi := src - s.base
	if mi < 0 || mi >= s.size {
		s.bad++
		return
	}
	n := int(p.Count)
	if s.pos[mi]+n > s.tileElems {
		s.bad++
		n = s.tileElems - s.pos[mi]
	}
	for i := 0; i < n; i++ {
		idx := s.pos[mi] + i
		v := p.Elem(i, s.spec.Type)
		if s.firstContribution(mi, idx) {
			s.tile[idx] = v
		} else {
			s.tile[idx] = reduceBits(s.spec.Type, s.spec.ReduceOp, s.tile[idx], v)
		}
	}
	s.pos[mi] += n
}

// firstContribution reports whether element idx of the tile has received
// no contribution yet (every member's position is past or at idx tells
// us how many have already folded in; we track it cheaply: the element
// has been written iff any member's pos was > idx before this write).
func (s *supportKernel) firstContribution(member, idx int) bool {
	for m := range s.pos {
		if m == member {
			continue
		}
		if s.pos[m] > idx {
			return false
		}
	}
	return true
}

// flushAvail returns how many elements of the current tile are fully
// reduced (every member has contributed them) but not yet flushed.
func (s *supportKernel) flushAvail() int {
	avail := s.tileElems
	for _, p := range s.pos {
		if p < avail {
			avail = p
		}
	}
	return avail - s.flushPos
}

func (s *supportKernel) tickReduceCollect() bool {
	// The reduce support kernel has three independent hardware ports —
	// the network input, the local application's contribution stream,
	// and the result stream — and services all of them every cycle.
	active := false

	// Results stream out incrementally: element i is flushed as soon as
	// every member has contributed it. This keeps the root application —
	// which pushes its own contribution and pops the result of the same
	// element in one SMI_Reduce call — flowing without a full-tile wait.
	if n := s.flushAvail(); n > 0 {
		active = s.flushResults(n)
	} else if s.flushPos >= s.tileElems && s.tileElems > 0 {
		// Tile fully flushed: grant the next round of credits.
		s.done += s.tileElems
		if s.done >= s.count {
			s.state = supIdle // final tile: no more credits needed
			return true
		}
		s.creditTo = 0
		s.state = supReduceCredit
		return true
	}

	// Ingest one packet from the network (remote ranks are gated by
	// credits and latency-sensitive) ...
	if p, ok := s.popNet(); ok {
		s.accumulate(p, int(p.Src))
		active = true
	}
	// ... and one from the local application, never consuming local data
	// beyond the current tile.
	rootMember := s.rank - s.base
	if s.pos[rootMember] < s.tileElems {
		if p, ok := s.appIn.TryPop(); ok {
			if p.Op != packet.OpData {
				s.bad++
				return true
			}
			s.accumulate(p, s.rank)
			active = true
		}
	}
	return active
}

// flushResults emits up to one packet of fully-reduced elements to the
// local application.
func (s *supportKernel) flushResults(n int) bool {
	if n > s.epp {
		n = s.epp
	}
	out := packet.Packet{
		Src: uint16(s.rank), Dst: uint16(s.rank), Port: uint8(s.spec.Port),
		Op: packet.OpData, Count: uint8(n),
	}
	for i := 0; i < n; i++ {
		out.PutElem(i, s.spec.Type, s.tile[s.flushPos+i])
	}
	if s.appOut.TryPush(out) {
		s.flushPos += n
		return true
	}
	return false
}

func (s *supportKernel) tickReduceCredit() bool {
	s.drainProtocol()
	for s.creditTo < s.size && s.memberRank(s.creditTo) == s.root {
		s.creditTo++
	}
	if s.creditTo >= s.size {
		s.startReduceTile()
		s.state = supReduceCollect
		return true
	}
	if s.netOut.TryPush(s.protocolPacket(packet.OpCredit, s.memberRank(s.creditTo))) {
		s.creditTo++
	}
	return true
}

func (s *supportKernel) tickReduceSend() bool {
	// Absorb credits: each grants one further tile.
	if s.drainProtocol() {
		return true
	}
	if s.credits > 0 {
		s.credits--
		s.sendAllow += s.nextTileSize(s.count - s.remaining + s.sendAllow)
		return true
	}
	if s.sendAllow <= 0 {
		return false
	}
	if !s.netOut.CanPush() {
		return s.appIn.CanPop()
	}
	p, ok := s.appIn.TryPop()
	if !ok {
		return false
	}
	if p.Op != packet.OpData {
		s.bad++
		return true
	}
	out := p
	out.Dst = uint16(s.root)
	out.Src = uint16(s.rank)
	s.netOut.TryPush(out)
	s.sendAllow -= int(p.Count)
	s.remaining -= int(p.Count)
	if s.remaining <= 0 {
		s.state = supIdle
	}
	return true
}

// --- Scatter ---

func (s *supportKernel) tickScatterRoot() bool {
	if s.member >= s.size {
		s.state = supIdle
		return true
	}
	m := s.memberRank(s.member)
	if m == s.rank {
		// The root's own chunk never crosses the support kernel: the
		// channel implementation keeps it application-local (the code
		// generator wires the root's slot straight through).
		s.member++
		s.remaining = s.count
		return true
	}
	// Remote member: wait for its readiness, then stream its chunk.
	if s.syncCount[m] < 1 {
		if s.drainProtocol() {
			return true
		}
		return false
	}
	if !s.netOut.CanPush() {
		return true
	}
	p, ok := s.appIn.TryPop()
	if !ok {
		s.drainProtocol()
		return false
	}
	if p.Op != packet.OpData {
		s.bad++
		return true
	}
	out := p
	out.Dst = uint16(m)
	out.Src = uint16(s.rank)
	s.netOut.TryPush(out)
	if s.advanceChunk(int(p.Count)) {
		s.syncCount[m]--
	}
	return true
}

// advanceChunk updates the per-member chunk progress; it returns true
// when the current member's chunk completed and advances to the next.
func (s *supportKernel) advanceChunk(n int) bool {
	s.remaining -= n
	if s.remaining <= 0 {
		s.member++
		s.granted = false
		s.remaining = s.count
		return true
	}
	return false
}

// --- Gather ---

func (s *supportKernel) tickGatherRoot() bool {
	if s.member >= s.size {
		s.state = supIdle
		return true
	}
	m := s.memberRank(s.member)
	if m == s.rank {
		// The root's own contribution stays application-local (see
		// tickScatterRoot); skip this member slot.
		s.member++
		s.granted = false
		s.remaining = s.count
		return true
	}
	if !s.granted {
		if s.netOut.TryPush(s.protocolPacket(packet.OpSyncReady, m)) {
			s.granted = true
		}
		return true
	}
	if !s.appOut.CanPush() {
		return false
	}
	p, ok := s.popNet()
	if !ok {
		return false
	}
	if int(p.Src) != m {
		s.bad++
		return true
	}
	s.appOut.TryPush(p)
	s.advanceChunk(int(p.Count))
	return true
}

func (s *supportKernel) tickGatherWaitGrant() bool {
	if s.drainProtocol() {
		return true
	}
	if s.syncCount[s.root] < 1 {
		return false
	}
	s.syncCount[s.root]--
	s.state = supGatherSend
	return true
}

func (s *supportKernel) tickGatherSend() bool {
	if !s.netOut.CanPush() {
		return true
	}
	p, ok := s.appIn.TryPop()
	if !ok {
		s.drainProtocol()
		return false
	}
	if p.Op != packet.OpData {
		s.bad++
		return true
	}
	out := p
	out.Dst = uint16(s.root)
	out.Src = uint16(s.rank)
	s.netOut.TryPush(out)
	s.remaining -= int(p.Count)
	if s.remaining <= 0 {
		s.state = supIdle
	}
	return true
}
