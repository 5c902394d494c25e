package packet

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSizes(t *testing.T) {
	if Size != 32 || HeaderSize != 4 || PayloadSize != 28 {
		t.Fatal("wire format must match the paper: 32B packet, 4B header, 28B payload")
	}
}

func TestEncodeDecodeRoundtrip(t *testing.T) {
	p := Packet{Src: 3, Dst: 200, Port: 17, Op: OpCredit, Count: 28}
	for i := range p.Payload {
		p.Payload[i] = byte(i * 7)
	}
	got := Decode(p.Encode())
	if got != p {
		t.Fatalf("roundtrip mismatch:\n got %+v\nwant %+v", got, p)
	}
}

// Property: every packet with wire-addressable fields (ranks below
// MaxWireRanks — the 8-bit header limit) survives the wire format.
func TestEncodeDecodeQuick(t *testing.T) {
	prop := func(src, dst, port uint8, op uint8, count uint8, payload [PayloadSize]byte) bool {
		p := Packet{
			Src: uint16(src), Dst: uint16(dst), Port: port,
			Op:      Op(op % uint8(numOps)),
			Count:   count % 29,
			Payload: payload,
		}
		return Decode(p.Encode()) == p
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHeaderBitPacking(t *testing.T) {
	// The op (3 bits) and count (5 bits) share header byte 3.
	p := Packet{Op: OpCredit, Count: 28}
	w := p.Encode()
	if w[3] != uint8(OpCredit)<<5|28 {
		t.Fatalf("byte 3 = %08b, want op in high 3 bits, count in low 5", w[3])
	}
}

func TestDatatypeSizes(t *testing.T) {
	cases := []struct {
		dt    Datatype
		size  int
		elems int
	}{
		{Char, 1, 28},
		{Short, 2, 14},
		{Int, 4, 7},
		{Float, 4, 7},
		{Double, 8, 3},
	}
	for _, c := range cases {
		if got := c.dt.Size(); got != c.size {
			t.Errorf("%v size = %d, want %d", c.dt, got, c.size)
		}
		if got := c.dt.ElemsPerPacket(); got != c.elems {
			t.Errorf("%v elems/packet = %d, want %d", c.dt, got, c.elems)
		}
	}
}

func TestInvalidDatatypePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Size on invalid datatype should panic")
		}
	}()
	_ = Datatype(99).Size()
}

func TestElemPacking(t *testing.T) {
	var p Packet
	// Fill all 7 int slots and read them back.
	for i := 0; i < Int.ElemsPerPacket(); i++ {
		p.PutElem(i, Int, IntBits(int32(-100*i)))
	}
	for i := 0; i < Int.ElemsPerPacket(); i++ {
		if got := BitsInt(p.Elem(i, Int)); got != int32(-100*i) {
			t.Fatalf("int elem %d = %d, want %d", i, got, -100*i)
		}
	}
}

func TestElemPackingAllTypesQuick(t *testing.T) {
	prop := func(raw uint64, dtRaw uint8, idxRaw uint8) bool {
		dt := Datatype(dtRaw%uint8(numDatatypes-1)) + 1
		i := int(idxRaw) % dt.ElemsPerPacket()
		mask := uint64(1)<<(8*dt.Size()) - 1
		if dt.Size() == 8 {
			mask = ^uint64(0)
		}
		var p Packet
		p.PutElem(i, dt, raw)
		return p.Elem(i, dt) == raw&mask
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestElemAdjacencyNoOverlap(t *testing.T) {
	var p Packet
	p.PutElem(0, Double, DoubleBits(math.Pi))
	p.PutElem(1, Double, DoubleBits(math.E))
	p.PutElem(2, Double, DoubleBits(-1.5))
	if BitsDouble(p.Elem(0, Double)) != math.Pi ||
		BitsDouble(p.Elem(1, Double)) != math.E ||
		BitsDouble(p.Elem(2, Double)) != -1.5 {
		t.Fatal("adjacent doubles overlap in payload")
	}
}

func TestFloatConversions(t *testing.T) {
	vals := []float32{0, 1.5, -3.25, float32(math.Inf(1)), math.MaxFloat32}
	for _, v := range vals {
		if got := BitsFloat(FloatBits(v)); got != v {
			t.Errorf("float roundtrip %g -> %g", v, got)
		}
	}
	if BitsShort(ShortBits(-1234)) != -1234 {
		t.Error("short roundtrip failed")
	}
	if BitsInt(IntBits(math.MinInt32)) != math.MinInt32 {
		t.Error("int roundtrip failed")
	}
	if BitsDouble(DoubleBits(math.SmallestNonzeroFloat64)) != math.SmallestNonzeroFloat64 {
		t.Error("double roundtrip failed")
	}
}

func TestConfigRoundtrip(t *testing.T) {
	// Config never crosses the network, so its rank fields cover the
	// full simulator range (MaxRanks), not just the 8-bit wire range —
	// a 1024-rank communicator must survive intact.
	for _, c := range []Config{
		{Root: 7, Count: 123456789, Base: 2, Size: 6},
		{Root: 1000, Count: 1 << 20, Base: 0, Size: MaxRanks},
	} {
		p := EncodeConfig(3, 9, c)
		if p.Op != OpConfig || p.Port != 9 || p.Src != 3 {
			t.Fatalf("bad config packet header: %v", p)
		}
		if got := DecodeConfig(p); got != c {
			t.Fatalf("config roundtrip: got %+v, want %+v", got, c)
		}
	}
}

func TestCreditElemsRoundtrip(t *testing.T) {
	for _, elems := range []uint32{0, 1, 128, 1 << 20, 0xFFFFFFFF} {
		p := Packet{Src: 1, Dst: 2, Port: 3, Op: OpCredit}
		EncodeCreditElems(&p, elems)
		if got := DecodeCreditElems(p); got != elems {
			t.Fatalf("credit roundtrip: got %d, want %d", got, elems)
		}
		if p.Op != OpCredit || p.Src != 1 || p.Dst != 2 || p.Port != 3 {
			t.Fatalf("encoding credits clobbered the header: %v", p)
		}
	}
}

func TestOpStrings(t *testing.T) {
	for op, want := range map[Op]string{
		OpData: "DATA", OpSyncReady: "SYNC", OpCredit: "CREDIT", OpConfig: "CONFIG",
	} {
		if op.String() != want {
			t.Errorf("%d.String() = %q, want %q", op, op.String(), want)
		}
	}
}

func TestRawElemsPerPacket(t *testing.T) {
	cases := map[Datatype]int{Char: 31, Short: 16, Int: 8, Float: 8, Double: 4}
	for dt, want := range cases {
		if got := RawElemsPerPacket(dt); got != want {
			t.Errorf("%v raw elems = %d, want %d", dt, got, want)
		}
	}
}

func TestRawElemRoundtrip(t *testing.T) {
	// Raw elements span the repurposed header bytes (Extra) and the
	// payload; doubles straddle the boundary.
	for _, dt := range []Datatype{Char, Short, Int, Float, Double} {
		var p Packet
		n := RawElemsPerPacket(dt)
		mask := uint64(1)<<(8*dt.Size()) - 1
		if dt.Size() == 8 {
			mask = ^uint64(0)
		}
		for i := 0; i < n; i++ {
			p.PutRawElem(i, dt, uint64(i)*0x9e3779b97f4a7c15)
		}
		for i := 0; i < n; i++ {
			want := (uint64(i) * 0x9e3779b97f4a7c15) & mask
			if got := p.RawElem(i, dt); got != want {
				t.Fatalf("%v raw elem %d = %x, want %x", dt, i, got, want)
			}
		}
	}
}

func TestRawElemUsesExtraBytes(t *testing.T) {
	var p Packet
	p.PutRawElem(0, Int, 0xDEADBEEF)
	if p.Extra == ([4]byte{}) {
		t.Fatal("raw element 0 should occupy the repurposed header bytes")
	}
	if p.Payload != ([PayloadSize]byte{}) {
		t.Fatal("raw element 0 must not spill into the payload")
	}
}

func TestStreamFragRoundtrip(t *testing.T) {
	for _, f := range []StreamFrag{
		{Seq: 0, Words: 1, Elems: 8},
		{Seq: 42, Words: 16, Elems: 128, Last: true},
		// MaxStreamWords itself: one past what a 16-bit field holds.
		{Seq: 1, Words: MaxStreamWords, Elems: MaxStreamWords * 8},
		// A circuit is one fragment spanning the whole message.
		{Seq: 0xFFFFFFFF, Words: 0xFFFFFFFF, Elems: 0xFFFFFFFF, Last: true},
	} {
		p := EncodeStreamFrag(3, 7, 9, f)
		if p.Op != OpStream || p.Src != 3 || p.Dst != 7 || p.Port != 9 {
			t.Fatalf("bad fragment header: %v", p)
		}
		if got := DecodeStreamFrag(p); got != f {
			t.Fatalf("fragment roundtrip: %+v != %+v", got, f)
		}
		// The header crosses reliable links in its 32-byte wire form.
		if got := DecodeStreamFrag(Decode(p.Encode())); got != f {
			t.Fatalf("fragment wire roundtrip: %+v != %+v", got, f)
		}
	}
}

func TestStreamCtlRoundtrip(t *testing.T) {
	for _, c := range []StreamCtl{
		{Kind: StreamReq, Elems: 1},
		{Kind: StreamGrant, Elems: 1 << 30},
	} {
		p := EncodeStreamCtl(5, 6, 2, c)
		if p.Op != OpStreamCtl || p.Src != 5 || p.Dst != 6 || p.Port != 2 {
			t.Fatalf("bad stream-ctl header: %v", p)
		}
		if got := DecodeStreamCtl(p); got != c {
			t.Fatalf("stream-ctl roundtrip: %+v != %+v", got, c)
		}
	}
}

func TestEncodeRawKeepsExtraBytes(t *testing.T) {
	// Encode drops Extra (it writes the 4-byte header); EncodeRaw must
	// keep all 32 payload bytes, since a raw word has no header at all.
	p := Packet{Op: OpRaw, Count: 8}
	n := RawElemsPerPacket(Int)
	for i := 0; i < n; i++ {
		p.PutRawElem(i, Int, uint64(i+1)*2654435761)
	}
	got := DecodeRaw(p.EncodeRaw(), p.Count)
	if got != p {
		t.Fatalf("raw wire roundtrip:\n got %+v\nwant %+v", got, p)
	}
	if lossy := Decode(p.Encode()); lossy.Extra == p.Extra {
		t.Fatal("sanity: the headered wire form should not preserve Extra")
	}
}

func TestRawCapacityBeatsPacketSwitching(t *testing.T) {
	// The whole point of circuit switching: every datatype packs at
	// least as many elements per wire word, usually more.
	for _, dt := range []Datatype{Char, Short, Int, Float, Double} {
		if RawElemsPerPacket(dt) <= dt.ElemsPerPacket() {
			t.Errorf("%v: raw %d should exceed packet-switched %d",
				dt, RawElemsPerPacket(dt), dt.ElemsPerPacket())
		}
	}
}
