// Package packet defines the SMI network packet format.
//
// A network packet is the minimal unit of routing (paper §4.2). It is 32
// bytes — the width of one BSP I/O channel word — split into a 4-byte
// header and a 28-byte payload:
//
//	byte 0: source rank
//	byte 1: destination rank
//	byte 2: port
//	byte 3: operation type (3 bits) | number of valid elements (5 bits)
//
// Rank and port are truncated to 8 bits on the wire to mitigate the
// header overhead of packet switching, exactly as in the reference
// implementation. The in-memory Packet keeps 16-bit rank fields so the
// simulator can model clusters beyond the 8-bit wire format's 256
// ranks; only the encoded wire form (the reliable link layer's frames)
// is bound to the 8-bit limit, and reliable clusters are capped at
// MaxWireRanks accordingly.
package packet

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// Wire sizes in bytes.
const (
	Size        = 32
	HeaderSize  = 4
	PayloadSize = Size - HeaderSize // 28
)

// MaxRanks is the largest rank count the simulator addresses (16-bit
// in-memory rank fields, bounded to keep per-rank state small).
const MaxRanks = 1024

// MaxWireRanks is the largest rank count the encoded 32-byte wire form
// can address (8-bit rank field). Paths that serialize packets — the
// reliable link layer — are limited to clusters of this size.
const MaxWireRanks = 256

// MaxPorts is the largest addressable port count (8-bit port field).
const MaxPorts = 256

// Op is the 3-bit packet operation type.
type Op uint8

const (
	// OpData carries message payload elements.
	OpData Op = iota
	// OpSyncReady signals "ready to receive" for one-to-all collectives
	// (Bcast, Scatter) and "your turn" grants for Gather.
	OpSyncReady
	// OpCredit grants one tile of credits in the Reduce flow-control
	// protocol.
	OpCredit
	// OpConfig carries dynamic channel configuration (root rank, element
	// count) from an application endpoint to its collective support
	// kernel. It never crosses the network.
	OpConfig
	// OpRaw is a headerless payload word: all 32 bytes carry elements.
	// Its routing is implied by the OpStream header that precedes it.
	OpRaw
	// OpStream is a stream-fragment header: it carries the fragment's
	// sequence number, the number of headerless OpRaw payload words that
	// follow, and the element count they hold. Communication kernels cut a
	// fragment through as soon as this header resolves the route, pinning
	// the route only for the fragment's word train. Streaming mode bounds
	// the fragment so competing channels interleave at fragment
	// boundaries; circuit switching (§4.2) is the degenerate case of one
	// fragment spanning the whole message.
	OpStream
	// OpStreamCtl is the streaming rendezvous control packet: a sender
	// whose message exceeds the endpoint credit asks the receiver for
	// permission (StreamReq) and streams only after the grant
	// (StreamGrant) — the classic eager/rendezvous switchover.
	OpStreamCtl

	numOps
)

func (o Op) String() string {
	switch o {
	case OpData:
		return "DATA"
	case OpSyncReady:
		return "SYNC"
	case OpCredit:
		return "CREDIT"
	case OpConfig:
		return "CONFIG"
	case OpRaw:
		return "RAW"
	case OpStream:
		return "STREAM"
	case OpStreamCtl:
		return "STREAMCTL"
	case OpGrantReq:
		return "GRANTREQ"
	case OpGrant:
		return "GRANT"
	default:
		return fmt.Sprintf("Op(%d)", uint8(o))
	}
}

// Packet is one 32-byte network packet.
//
// For OpRaw payload words the header bytes are repurposed as four
// extra payload bytes (Extra), giving the full 32-byte wire word to
// data; the Op and Count fields then ride out-of-band in the simulator,
// standing in for the state real cut-through hardware keeps per
// route lock.
type Packet struct {
	Src     uint16
	Dst     uint16
	Port    uint8
	Op      Op
	Count   uint8 // number of valid elements in Payload (5 bits, <= 28)
	Extra   [HeaderSize]byte
	Payload [PayloadSize]byte
}

// Encode serializes the packet into its 32-byte wire form. Ranks are
// truncated to the 8-bit wire fields; callers guarantee they are below
// MaxWireRanks (the reliable link layer only runs in clusters capped at
// that size).
func (p *Packet) Encode() [Size]byte {
	if p.Op >= numOps {
		// In-memory control ops (OpGrantReq/OpGrant) have no wire form:
		// truncating them into the 3-bit field would deliver a forged
		// OpData. The cluster builder rejects the configurations that
		// could route one here; reaching this is a transport bug.
		panic(fmt.Sprintf("packet: op %v has no 3-bit wire encoding", p.Op))
	}
	var w [Size]byte
	w[0] = uint8(p.Src)
	w[1] = uint8(p.Dst)
	w[2] = p.Port
	w[3] = uint8(p.Op)<<5 | p.Count&0x1f
	copy(w[HeaderSize:], p.Payload[:])
	return w
}

// Decode deserializes a 32-byte wire word into a packet.
func Decode(w [Size]byte) Packet {
	var p Packet
	p.Src = uint16(w[0])
	p.Dst = uint16(w[1])
	p.Port = w[2]
	p.Op = Op(w[3] >> 5)
	p.Count = w[3] & 0x1f
	copy(p.Payload[:], w[HeaderSize:])
	return p
}

func (p Packet) String() string {
	return fmt.Sprintf("{%s %d->%d port=%d n=%d}", p.Op, p.Src, p.Dst, p.Port, p.Count)
}

// PutElem stores the raw bits of element i of the given datatype into
// the payload. Values are passed as uint64 bit patterns (see Datatype
// helpers for conversions).
func (p *Packet) PutElem(i int, dt Datatype, bits uint64) {
	s := dt.Size()
	off := i * s
	switch s {
	case 1:
		p.Payload[off] = byte(bits)
	case 2:
		binary.LittleEndian.PutUint16(p.Payload[off:], uint16(bits))
	case 4:
		binary.LittleEndian.PutUint32(p.Payload[off:], uint32(bits))
	case 8:
		binary.LittleEndian.PutUint64(p.Payload[off:], bits)
	}
}

// Elem loads the raw bits of element i of the given datatype.
func (p *Packet) Elem(i int, dt Datatype) uint64 {
	s := dt.Size()
	off := i * s
	switch s {
	case 1:
		return uint64(p.Payload[off])
	case 2:
		return uint64(binary.LittleEndian.Uint16(p.Payload[off:]))
	case 4:
		return uint64(binary.LittleEndian.Uint32(p.Payload[off:]))
	case 8:
		return binary.LittleEndian.Uint64(p.Payload[off:])
	}
	return 0
}

// castagnoli is the CRC-32C table used for link-level frame checksums
// (the polynomial hardware link layers typically implement).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checksum computes the link-level CRC-32C over one wire word plus the
// frame metadata the reliable link layer adds around it (sequence
// number, cumulative acknowledgement, control flags). The physical QSFP
// links the paper relies on carry equivalent protection inside the BSP
// (§5.1); the simulator makes it explicit so injected bit errors are
// detectable.
func Checksum(w [Size]byte, seq, ack uint64, flags byte) uint32 {
	var meta [17]byte
	binary.LittleEndian.PutUint64(meta[0:], seq)
	binary.LittleEndian.PutUint64(meta[8:], ack)
	meta[16] = flags
	crc := crc32.Update(0, castagnoli, w[:])
	return crc32.Update(crc, castagnoli, meta[:])
}

// Config is the dynamic per-channel information a collective support
// kernel needs, delivered in an OpConfig packet on first use: collectives
// can pick their root and message length at run time without rebuilding
// hardware (paper §4.4: "Both the root and non-root behavior is
// instantiated at every rank, to allow the root rank to be specified
// dynamically").
type Config struct {
	Root  uint16
	Count uint32 // message length in elements (per rank)
	Base  uint16 // first global rank of the communicator
	Size  uint16 // communicator size in ranks
}

// EncodeConfig packs a Config into an OpConfig packet for the given
// port. The rank fields are 16-bit: OpConfig never crosses the network,
// so it is not bound to the wire header's 8-bit rank limit and can
// describe communicators up to MaxRanks.
func EncodeConfig(src uint16, port uint8, c Config) Packet {
	p := Packet{Src: src, Dst: src, Port: port, Op: OpConfig}
	binary.LittleEndian.PutUint16(p.Payload[0:], c.Root)
	binary.LittleEndian.PutUint32(p.Payload[2:], c.Count)
	binary.LittleEndian.PutUint16(p.Payload[6:], c.Base)
	binary.LittleEndian.PutUint16(p.Payload[8:], c.Size)
	return p
}

// DecodeConfig extracts a Config from an OpConfig packet.
func DecodeConfig(p Packet) Config {
	return Config{
		Root:  binary.LittleEndian.Uint16(p.Payload[0:]),
		Count: binary.LittleEndian.Uint32(p.Payload[2:]),
		Base:  binary.LittleEndian.Uint16(p.Payload[6:]),
		Size:  binary.LittleEndian.Uint16(p.Payload[8:]),
	}
}

// EncodeCreditElems stores a granted element count in an OpCredit
// packet's payload (credit-based flow control, paper §4.1).
func EncodeCreditElems(p *Packet, elems uint32) {
	binary.LittleEndian.PutUint32(p.Payload[0:], elems)
}

// DecodeCreditElems reads the granted element count from an OpCredit
// packet.
func DecodeCreditElems(p Packet) uint32 {
	return binary.LittleEndian.Uint32(p.Payload[0:])
}

// RawElemsPerPacket returns how many elements of the datatype fit in a
// headerless raw payload word (32 bytes, capped at 31 by the
// 5-bit count field): 31 chars, 16 shorts, 8 ints/floats, 4 doubles.
func RawElemsPerPacket(dt Datatype) int {
	n := Size / dt.Size()
	if n > 31 {
		n = 31
	}
	return n
}

// rawByte addresses the 32-byte raw payload: offsets 0-3 live in Extra,
// 4-31 in Payload.
func (p *Packet) rawByte(off int) *byte {
	if off < HeaderSize {
		return &p.Extra[off]
	}
	return &p.Payload[off-HeaderSize]
}

// PutRawElem stores element i of a raw word.
func (p *Packet) PutRawElem(i int, dt Datatype, bits uint64) {
	s := dt.Size()
	for b := 0; b < s; b++ {
		*p.rawByte(i*s + b) = byte(bits >> (8 * b))
	}
}

// RawElem loads element i of a raw word.
func (p *Packet) RawElem(i int, dt Datatype) uint64 {
	s := dt.Size()
	var bits uint64
	for b := 0; b < s; b++ {
		bits |= uint64(*p.rawByte(i*s + b)) << (8 * b)
	}
	return bits
}

// wireOps is the size of the 3-bit wire op field. numOps <= wireOps or
// the constant below overflows and the package does not compile; seven
// of the eight values are in use.
const wireOps = 8

const _ = wireOps - numOps

// In-memory control ops. The receiver-driven transport's flow-control
// packets have no wire form yet: they take op values >= wireOps, exist only
// inside the simulator's in-memory packet structs and ride pristine
// links (which move Packet values without serializing). They must never
// reach Encode — the reliable link layer is the only path that
// serializes packets, and clusters combining the receiver-driven
// transport with reliable links are rejected at build time. A hardware
// wire format would spend the one free op on them, with a kind byte like
// OpStreamCtl's; see DESIGN.md §9 for the would-be encoding.
const (
	// OpGrantReq announces backlog to a receiver: "src has (cumulative)
	// N paced data packets to send on this port". Sent by the
	// receiver-driven pacer when a flow runs out of grant credit.
	OpGrantReq Op = wireOps + iota
	// OpGrant paces a sender: the receiver raises the flow's cumulative
	// send allowance to N packets. Issued in SRPT order, bounded by the
	// destination endpoint's free buffer space.
	OpGrant
)

// GrantTotal is the cumulative packet count an OpGrantReq announces
// (demand) or an OpGrant allows (allowance). Cumulative counters make
// the protocol idempotent: a stale announcement or grant is simply a
// no-op under max().
func GrantTotal(p Packet) uint32 { return binary.LittleEndian.Uint32(p.Payload[0:]) }

// EncodeGrantReq builds a backlog announcement for a paced flow.
func EncodeGrantReq(src, dst uint16, port uint8, needTotal uint32) Packet {
	p := Packet{Src: src, Dst: dst, Port: port, Op: OpGrantReq}
	binary.LittleEndian.PutUint32(p.Payload[0:], needTotal)
	return p
}

// EncodeGrant builds a grant raising a flow's cumulative send allowance.
func EncodeGrant(src, dst uint16, port uint8, grantTotal uint32) Packet {
	p := Packet{Src: src, Dst: dst, Port: port, Op: OpGrant}
	binary.LittleEndian.PutUint32(p.Payload[0:], grantTotal)
	return p
}

// EncodeRaw serializes a headerless OpRaw packet into its full-payload
// 32-byte wire word: unlike Encode, all four Extra bytes go on the wire
// and no header is written. The out-of-band Op and Count ride in the
// link-layer frame sideband (see internal/link), standing in for the
// per-lock state real cut-through hardware keeps.
func (p *Packet) EncodeRaw() [Size]byte {
	var w [Size]byte
	copy(w[:HeaderSize], p.Extra[:])
	copy(w[HeaderSize:], p.Payload[:])
	return w
}

// DecodeRaw rebuilds a headerless OpRaw packet from its full-payload
// wire word and the sideband element count.
func DecodeRaw(w [Size]byte, count uint8) Packet {
	p := Packet{Op: OpRaw, Count: count}
	copy(p.Extra[:], w[:HeaderSize])
	copy(p.Payload[:], w[HeaderSize:])
	return p
}

// MaxStreamWords is the largest StreamBatch a streaming port accepts:
// the fragment size at which competing channels still get a polling turn
// within a bounded wait. (The header's 32-bit Words field itself can span
// any message — a circuit is one such fragment.)
const MaxStreamWords = 1 << 16

// StreamFrag is the meta-information an OpStream fragment header
// carries. Intermediate kernels hold the route for Words words and
// release it at the fragment boundary.
type StreamFrag struct {
	Seq   uint32 // fragment sequence number within the message, from 0
	Words uint32 // headerless payload words that follow this header
	Elems uint32 // elements carried by those words
	Last  bool   // final fragment of the message
}

// EncodeStreamFrag builds a fragment header packet.
func EncodeStreamFrag(src, dst uint16, port uint8, f StreamFrag) Packet {
	p := Packet{Src: src, Dst: dst, Port: port, Op: OpStream}
	binary.LittleEndian.PutUint32(p.Payload[0:], f.Seq)
	binary.LittleEndian.PutUint32(p.Payload[4:], f.Words)
	binary.LittleEndian.PutUint32(p.Payload[8:], f.Elems)
	if f.Last {
		p.Payload[12] = 1
	}
	return p
}

// DecodeStreamFrag extracts the fragment meta-information.
func DecodeStreamFrag(p Packet) StreamFrag {
	return StreamFrag{
		Seq:   binary.LittleEndian.Uint32(p.Payload[0:]),
		Words: binary.LittleEndian.Uint32(p.Payload[4:]),
		Elems: binary.LittleEndian.Uint32(p.Payload[8:]),
		Last:  p.Payload[12] != 0,
	}
}

// StreamCtlKind distinguishes the two rendezvous control packets.
type StreamCtlKind uint8

const (
	// StreamReq asks the receiver for permission to stream Elems
	// elements (sender → receiver).
	StreamReq StreamCtlKind = iota + 1
	// StreamGrant acknowledges the request: the receiver is at its
	// channel and ready to drain the stream (receiver → sender).
	StreamGrant
)

func (k StreamCtlKind) String() string {
	switch k {
	case StreamReq:
		return "REQ"
	case StreamGrant:
		return "GRANT"
	default:
		return fmt.Sprintf("StreamCtlKind(%d)", uint8(k))
	}
}

// StreamCtl is the payload of an OpStreamCtl rendezvous packet.
type StreamCtl struct {
	Kind  StreamCtlKind
	Elems uint32 // total message length in elements
}

// EncodeStreamCtl builds a rendezvous control packet.
func EncodeStreamCtl(src, dst uint16, port uint8, c StreamCtl) Packet {
	p := Packet{Src: src, Dst: dst, Port: port, Op: OpStreamCtl}
	p.Payload[0] = uint8(c.Kind)
	binary.LittleEndian.PutUint32(p.Payload[1:], c.Elems)
	return p
}

// DecodeStreamCtl extracts the rendezvous control information.
func DecodeStreamCtl(p Packet) StreamCtl {
	return StreamCtl{
		Kind:  StreamCtlKind(p.Payload[0]),
		Elems: binary.LittleEndian.Uint32(p.Payload[1:]),
	}
}
