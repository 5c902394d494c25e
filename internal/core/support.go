package smi

import (
	"fmt"
	"slices"

	"repro/internal/packet"
	"repro/internal/sim"
)

// supportKernel coordinates one collective port at one rank (paper
// §4.4). It sits between the application endpoint FIFOs and the
// CKS/CKR pair the port is bound to, and runs each collective's
// synchronization protocol once per edge of the round's shape: this
// rank's parent and children (tree.go). The paper's linear scheme is the
// star shape, every other member under the root; PortSpec.Tree selects
// the binomial shape, the "tree-based schema" the paper says the support
// kernels can offer.
//
//   - Bcast/Scatter (one-to-all): a node sends a SYNC to its parent once
//     every child has sent it one, so the root's stream never meets an
//     unready subtree; every node then copies each packet it receives to
//     its children.
//   - Gather (all-to-one, star only): the root grants each source rank
//     its turn in rank order.
//   - Reduce (all-to-one): credit-based flow control. A node with
//     children combines their contributions and its own in a C-element
//     tile buffer, streams the result up (to the application at the
//     root), and grants each child one further tile of credit per tile.
//     A childless node streams its contribution up and may run one tile
//     ahead of its parent.
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
	root  int // global root rank of the current round
	base  int // communicator base
	size  int // communicator size
	count int // elements (per rank) in the current round

	// This rank's place in the round's shape, in global ranks.
	parent   int // -1 at the root
	children []int

	// Protocol counters, persistent across rounds: early SYNCs/credits
	// for the next round are absorbed here instead of clogging CKR.
	syncCount []int // per cluster rank
	credits   int

	// Streaming state.
	remaining int           // elements left in the current phase
	member    int           // member index being served (scatter/gather root)
	granted   bool          // gather: the current turn is granted
	dup       packet.Packet // bcast: packet being copied to the children
	dupValid  bool
	dupNext   int // next child to copy dup to

	// Reduce state.
	early     []packet.Packet // contributions ahead of this node's round (ingest)
	tile      []uint64        // accumulation buffer (C elements)
	pos       []int           // per-slot elements contributed to the current tile
	tileElems int             // size of the current tile
	done      int             // elements fully reduced so far
	flushPos  int             // elements flushed from the current tile
	creditTo  int             // next child to send a credit to
	upGranted int             // elements the parent has allowed upward so far

	absorbed bool // a protocol packet was consumed this cycle
	busy     bool // the last tick made progress

	bad uint64 // protocol violations observed
}

type supState uint8

const (
	supIdle        supState = iota
	supSync                 // bcast/scatter: children's SYNCs in, own SYNC up
	supStream               // bcast root: copy application data to the children
	supForward              // bcast/scatter non-root: deliver, then copy down
	supCollect              // reduce with children: combine tiles, flush up
	supCredit               // reduce with children: one credit per child
	supSend                 // reduce without children: stream up under credits
	supScatterRoot          // scatter root: stream each member's chunk
	supGatherRoot           // gather root: grant and collect each member in turn
	supGatherSend           // gather non-root: await the grant, then stream
)

func newSupportKernel(name string, rank, ranks int, spec PortSpec, appIn, appOut, netOut, netIn *sim.Fifo[packet.Packet]) *supportKernel {
	return &supportKernel{
		name: name, rank: rank, spec: spec, epp: spec.Type.ElemsPerPacket(),
		appIn: appIn, appOut: appOut, netOut: netOut, netIn: netIn,
		syncCount: make([]int, ranks),
	}
}

func (s *supportKernel) Name() string { return s.name }

// absorb counts a protocol packet (SYNC, CREDIT) into its counter.
func (s *supportKernel) absorb(p packet.Packet) {
	s.absorbed = true
	switch p.Op {
	case packet.OpSyncReady:
		s.syncCount[p.Src]++
	case packet.OpCredit:
		s.credits++
	default:
		s.bad++
	}
}

// popNet pops one packet from the network side, absorbing protocol
// packets. It returns a data packet, or ok=false if none was consumed
// this cycle.
func (s *supportKernel) popNet() (packet.Packet, bool) {
	p, ok := s.netIn.TryPop()
	if !ok || p.Op == packet.OpData {
		return p, ok
	}
	s.absorb(p)
	return packet.Packet{}, false
}

// drainProtocol absorbs any waiting SYNC/CREDIT packet without consuming
// data. Returns true if it popped something.
func (s *supportKernel) drainProtocol() bool {
	p, ok := s.netIn.Peek()
	if !ok || p.Op == packet.OpData {
		return false
	}
	s.netIn.TryPop()
	s.absorb(p)
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

// leaf reports whether this rank has a parent and no children: it waits
// on nobody and talks only to its parent.
func (s *supportKernel) leaf() bool { return s.parent >= 0 && len(s.children) == 0 }

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
	case supSync:
		return s.tickSync()
	case supStream:
		return s.tickStream()
	case supForward:
		return s.tickForward()
	case supCollect:
		return s.tickCollect()
	case supCredit:
		return s.tickCredit()
	case supSend:
		return s.tickSend()
	case supScatterRoot:
		return s.tickScatterRoot()
	case supGatherRoot:
		return s.tickGatherRoot()
	case supGatherSend:
		return s.tickGatherSend()
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
	s.root, s.base, s.size, s.count = int(cfg.Root), int(cfg.Base), int(cfg.Size), int(cfg.Count)
	s.remaining = s.count
	shape := star
	if s.spec.Tree {
		shape = binomial
	}
	s.parent, s.children = shape(s.base, s.size, s.root, s.rank, s.children[:0])
	isRoot := s.parent < 0

	switch s.spec.Kind {
	case Bcast:
		s.state = supSync
	case Scatter:
		s.state = supSync
		if isRoot {
			s.member, s.granted = 0, false
			s.state = supScatterRoot
		}
	case Gather:
		s.member, s.granted = 0, false
		s.state = supGatherSend
		if isRoot {
			s.state = supGatherRoot
		}
	case Reduce:
		s.done = 0
		s.upGranted = s.nextTileSize(0) // the first tile needs no credit
		if s.leaf() {
			s.state = supSend
			break
		}
		if cap(s.tile) < s.spec.CreditElems {
			s.tile = make([]uint64, s.spec.CreditElems)
		}
		s.startTile()
		s.state = supCollect
	default:
		s.bad++
		s.state = supIdle
	}
	return true
}

// --- Bcast (and the non-root leg of Scatter) ---

// tickSync is the readiness rendezvous: a node waits for a SYNC from
// every child, then sends its own to its parent; the root then starts
// streaming. A leaf waits on nobody and sends its SYNC at once.
func (s *supportKernel) tickSync() bool {
	if !s.leaf() {
		if s.drainProtocol() {
			return true
		}
		for _, c := range s.children {
			if s.syncCount[c] < 1 {
				return false // still waiting for a ready notification
			}
		}
	}
	if s.parent >= 0 && !s.netOut.TryPush(s.protocolPacket(packet.OpSyncReady, s.parent)) {
		return true
	}
	for _, c := range s.children {
		s.syncCount[c]--
	}
	s.dupValid = false
	s.state = supForward
	if s.parent < 0 {
		s.state = supStream
	}
	return true
}

// tickStream takes each data packet from the root application and copies
// it to the root's children, one copy per cycle (under the star shape
// root egress bandwidth divides by the member count).
func (s *supportKernel) tickStream() bool {
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
		s.dup, s.dupValid, s.dupNext = p, true, 0
	}
	return s.replicate()
}

// tickForward delivers the next data packet from the parent to the local
// application, then copies it to the children from the next cycle on. A
// leaf finishes the packet in the cycle it delivers it.
func (s *supportKernel) tickForward() bool {
	if !s.dupValid {
		if !s.appOut.CanPush() {
			// Blocked on the application: no progress this cycle.
			return false
		}
		p, ok := s.popNet()
		if !ok {
			return false
		}
		if int(p.Src) != s.parent {
			s.bad++
			return true
		}
		s.appOut.TryPush(p)
		s.dup, s.dupValid, s.dupNext = p, true, 0
		if len(s.children) > 0 {
			return true
		}
	}
	return s.replicate()
}

// replicate copies dup to the next child, one copy per cycle, and
// finishes the packet once every child has it.
func (s *supportKernel) replicate() bool {
	if s.dupNext < len(s.children) {
		out := s.dup
		out.Src = uint16(s.rank)
		out.Dst = uint16(s.children[s.dupNext])
		if s.netOut.TryPush(out) {
			s.dupNext++
		}
		return true
	}
	s.remaining -= int(s.dup.Count)
	s.dupValid = false
	if s.remaining <= 0 {
		s.state = supIdle
	}
	return true
}

// --- Reduce ---

// nextTileSize returns the size in elements of the tile starting after
// `done` reduced elements.
func (s *supportKernel) nextTileSize(done int) int {
	return min(s.count-done, s.spec.CreditElems)
}

// startTile opens the next tile. The tile has one position slot per
// child, in shape order, plus the local application's last.
func (s *supportKernel) startTile() {
	s.tileElems = s.nextTileSize(s.done)
	n := len(s.children) + 1
	if cap(s.pos) < n {
		s.pos = make([]int, n)
	}
	s.pos = s.pos[:n]
	clear(s.pos)
	clear(s.tile[:s.tileElems])
	s.flushPos = 0
}

// fits returns the tile slot of a network contribution — children in
// shape order — or -1 if its source is no child this round or its slot
// has no room left in the tile.
func (s *supportKernel) fits(p packet.Packet) int {
	for i, c := range s.children {
		if c == int(p.Src) {
			if s.pos[i]+int(p.Count) > s.tileElems {
				return -1
			}
			return i
		}
	}
	return -1
}

// ingest folds one contribution from the network into the tile. A child
// that has finished this round may already be streaming the next — the
// first tile of a round needs no credit — and under a tree a rank may
// send to a parent still collecting for an earlier shape; a packet that
// does not fit the tile waits in early, in arrival order, for a later
// round's tile.
func (s *supportKernel) ingest() bool {
	for i, p := range s.early {
		if mi := s.fits(p); mi >= 0 {
			s.early = slices.Delete(s.early, i, i+1)
			s.accumulate(p, mi)
			return true
		}
	}
	p, ok := s.popNet()
	if !ok {
		return false
	}
	if mi := s.fits(p); mi >= 0 {
		s.accumulate(p, mi)
	} else {
		s.early = append(s.early, p)
	}
	return true
}

// accumulate folds a contribution packet into tile slot mi.
func (s *supportKernel) accumulate(p packet.Packet, mi int) {
	n := int(p.Count)
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
// no contribution yet: it has been written iff another slot's position
// is already past it.
func (s *supportKernel) firstContribution(slot, idx int) bool {
	for m, p := range s.pos {
		if m != slot && p > idx {
			return false
		}
	}
	return true
}

// flushAvail returns how many elements of the current tile are fully
// reduced (every slot has contributed them) but not yet flushed.
func (s *supportKernel) flushAvail() int {
	avail := s.tileElems
	for _, p := range s.pos {
		avail = min(avail, p)
	}
	return avail - s.flushPos
}

// takeCredit turns one credit from the parent into one more tile of
// upward allowance.
func (s *supportKernel) takeCredit() bool {
	if s.credits == 0 {
		return false
	}
	s.credits--
	s.upGranted += s.nextTileSize(s.upGranted)
	return true
}

// tickCollect is the tile collector of a node with children.
func (s *supportKernel) tickCollect() bool {
	// The collector has three independent hardware ports — the network
	// input, the local application's contribution stream, and the result
	// stream — and services all of them every cycle.
	active := s.parent >= 0 && s.takeCredit()

	// Results stream out incrementally: element i is flushed as soon as
	// every slot has contributed it. This keeps the root application —
	// which pushes its own contribution and pops the result of the same
	// element in one SMI_Reduce call — flowing without a full-tile wait.
	if n := s.flushAvail(); n > 0 {
		active = s.flush(n) || active
	} else if s.flushPos >= s.tileElems && s.tileElems > 0 {
		// Tile fully flushed: grant the children their next tile.
		s.done += s.tileElems
		if s.done >= s.count {
			s.state = supIdle // final tile: no more credits needed
			return true
		}
		s.creditTo = 0
		s.state = supCredit
		return true
	}

	// Ingest one packet from the network (remote ranks are gated by
	// credits and latency-sensitive) ...
	active = s.ingest() || active
	// ... and one from the local application, never consuming local data
	// beyond the current tile.
	if self := len(s.children); s.pos[self] < s.tileElems {
		if p, ok := s.appIn.TryPop(); ok {
			if p.Op != packet.OpData {
				s.bad++
				return true
			}
			s.accumulate(p, self)
			active = true
		}
	}
	return active
}

// flush emits up to one packet of fully-reduced elements: to the local
// application at the root, otherwise to the parent within its credits.
func (s *supportKernel) flush(n int) bool {
	dst, fifo := s.rank, s.appOut
	if s.parent >= 0 {
		dst, fifo = s.parent, s.netOut
		n = min(n, s.upGranted-s.done-s.flushPos)
	}
	n = min(n, s.epp)
	if n <= 0 {
		return false
	}
	out := packet.Packet{
		Src: uint16(s.rank), Dst: uint16(dst), Port: uint8(s.spec.Port),
		Op: packet.OpData, Count: uint8(n),
	}
	for i := 0; i < n; i++ {
		out.PutElem(i, s.spec.Type, s.tile[s.flushPos+i])
	}
	if !fifo.TryPush(out) {
		return false
	}
	s.flushPos += n
	return true
}

// tickCredit grants each child one further tile, one credit per cycle,
// then opens that tile.
func (s *supportKernel) tickCredit() bool {
	s.drainProtocol()
	if s.creditTo >= len(s.children) {
		s.startTile()
		s.state = supCollect
		return true
	}
	if s.netOut.TryPush(s.protocolPacket(packet.OpCredit, s.children[s.creditTo])) {
		s.creditTo++
	}
	return true
}

// tickSend streams a childless node's contribution to its parent; each
// credit absorbed grants one further tile.
func (s *supportKernel) tickSend() bool {
	if s.drainProtocol() || s.takeCredit() {
		return true
	}
	if s.upGranted <= s.count-s.remaining {
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
	s.sendData(p, s.parent)
	return true
}

// sendData forwards an application data packet to dst and retires its
// elements; the caller has checked that netOut has room.
func (s *supportKernel) sendData(p packet.Packet, dst int) {
	p.Src, p.Dst = uint16(s.rank), uint16(dst)
	s.netOut.TryPush(p)
	s.remaining -= int(p.Count)
	if s.remaining <= 0 {
		s.state = supIdle
	}
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
		return s.drainProtocol()
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

// tickGatherSend waits for the root's grant (a SYNC), then streams this
// rank's contribution to it.
func (s *supportKernel) tickGatherSend() bool {
	if !s.granted {
		if s.drainProtocol() {
			return true
		}
		if s.syncCount[s.root] < 1 {
			return false
		}
		s.syncCount[s.root]--
		s.granted = true
		return true
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
	s.sendData(p, s.root)
	return true
}
