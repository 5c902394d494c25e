package smi

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/topology"
)

func TestCircuitBeatsPacketBandwidth(t *testing.T) {
	// The point of circuit switching: headerless payload packets use the
	// full 32-byte wire word, so a saturated link carries 32 bytes of
	// payload per cycle instead of 28.
	run := func(mode Mode) int64 {
		const n = 56000
		topo, _ := topology.Bus(2)
		c, err := NewCluster(Config{
			Topology: topo,
			Program: ProgramSpec{Ports: []PortSpec{
				{Port: 0, Type: Int, Mode: mode, VecWidth: 8, BufferElems: 4096},
			}},
		})
		if err != nil {
			t.Fatal(err)
		}
		c.OnRank(0, "s", func(x *Ctx) {
			ch, _ := x.OpenSendChannel(n, Int, 1, 0, x.CommWorld())
			for i := 0; i < n; i++ {
				Push(ch, int32(i))
			}
		})
		c.OnRank(1, "r", func(x *Ctx) {
			ch, _ := x.OpenRecvChannel(n, Int, 0, 0, x.CommWorld())
			for i := 0; i < n; i++ {
				Pop[int32](ch)
			}
		})
		st, err := c.Run()
		if err != nil {
			t.Fatal(err)
		}
		return st.Cycles
	}
	pkt := run(ModePacket)
	circ := run(ModeCircuit)
	if float64(circ) > 0.85*float64(pkt) {
		t.Fatalf("circuit (%d cycles) should clearly beat packet switching (%d)", circ, pkt)
	}
}

func TestCircuitBlocksConcurrentChannel(t *testing.T) {
	// The multiplexing cost: while a circuit holds a CKS, a message on a
	// second port bound to the same kernel waits for the whole circuit.
	run := func(mode Mode) int64 {
		const bulk = 14000
		topo, _ := topology.Bus(2)
		c, err := NewCluster(Config{
			Topology: topo,
			Program: ProgramSpec{Ports: []PortSpec{
				{Port: 0, Type: Int, Mode: mode, VecWidth: 8, BufferElems: 1024, Iface: 0, PinIface: true},
				{Port: 1, Type: Int, Iface: 0, PinIface: true},
			}},
		})
		if err != nil {
			t.Fatal(err)
		}
		c.OnRank(0, "bulk", func(x *Ctx) {
			ch, _ := x.OpenSendChannel(bulk, Int, 1, 0, x.CommWorld())
			for i := 0; i < bulk; i++ {
				Push(ch, int32(i))
			}
		})
		var ctlDone int64
		c.OnRank(0, "ctl", func(x *Ctx) {
			x.Sleep(200) // the bulk message is already flowing
			ch, _ := x.OpenSendChannel(4, Int, 1, 1, x.CommWorld())
			for i := 0; i < 4; i++ {
				Push(ch, int32(i))
			}
		})
		// Independent consumers: the control consumer must not gate the
		// bulk consumer, or a circuit that outlives all buffering would
		// deadlock the run (the §4.2 hazard of circuit switching).
		c.OnRank(1, "rbulk", func(x *Ctx) {
			bc, _ := x.OpenRecvChannel(bulk, Int, 0, 0, x.CommWorld())
			for i := 0; i < bulk; i++ {
				Pop[int32](bc)
			}
		})
		c.OnRank(1, "rctl", func(x *Ctx) {
			ctl, _ := x.OpenRecvChannel(4, Int, 0, 1, x.CommWorld())
			for i := 0; i < 4; i++ {
				Pop[int32](ctl)
			}
			ctlDone = x.Now()
		})
		if _, err := c.Run(); err != nil {
			t.Fatal(err)
		}
		return ctlDone
	}
	pktCtl := run(ModePacket)
	circCtl := run(ModeCircuit)
	// Under packet switching the control message interleaves with the
	// bulk stream; under circuit switching it waits behind the circuit.
	if float64(circCtl) < 2*float64(pktCtl) {
		t.Fatalf("circuit should delay the concurrent channel: ctl done at %d (circuit) vs %d (packet)", circCtl, pktCtl)
	}
}

func TestCircuitValidation(t *testing.T) {
	bad := ProgramSpec{Ports: []PortSpec{{Port: 0, Kind: Bcast, Type: Int, Mode: ModeCircuit}}}
	if err := bad.Validate(); err == nil {
		t.Fatal("circuit collective accepted")
	}
	// The modes are one field, so "circuit and credited" cannot be
	// written; what is left to reject is a value outside the enum.
	bad = ProgramSpec{Ports: []PortSpec{{Port: 0, Type: Int, Mode: numModes}}}
	if err := bad.Validate(); err == nil {
		t.Fatal("out-of-range transfer mode accepted")
	}
}

// TestCircuitShardFaultDelivery closes a long-standing coverage gap:
// circuit channels under the parallel scheduler, with fault injection
// forcing the reliable layer to carry headerless raw words (whose
// op/count ride the frame sideband — see link.encodeWord). The full
// cross-scheduler parity matrix for circuit and streaming channels is
// TestStreamingSchedulerParity.
func TestCircuitShardFaultDelivery(t *testing.T) {
	const n = 1500
	topo, err := topology.Bus(4)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCluster(Config{
		Topology:  topo,
		Program:   ProgramSpec{Ports: []PortSpec{{Port: 0, Type: Int, Mode: ModeCircuit, BufferElems: 256}}},
		Scheduler: sim.SchedShardAdaptive,
		Shards:    4, // reliable clusters run in parallel for real: split tx/rx halves per engine
		Faults:    &fault.Spec{Seed: 23, DropProb: 0.003, CorruptProb: 0.001},
	})
	if err != nil {
		t.Fatal(err)
	}
	c.OnRank(0, "s", func(x *Ctx) {
		ch, err := x.OpenSendChannel(n, Int, 3, 0, x.CommWorld())
		if err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < n; i++ {
			Push(ch, int32(i*7))
		}
	})
	c.OnRank(3, "r", func(x *Ctx) {
		ch, err := x.OpenRecvChannel(n, Int, 0, 0, x.CommWorld())
		if err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < n; i++ {
			if got := Pop[int32](ch); got != int32(i*7) {
				t.Errorf("element %d = %d, want %d", i, got, i*7)
				return
			}
		}
	})
	st, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if st.Retransmits == 0 && st.CrcErrors == 0 {
		t.Fatal("fault spec injected nothing; raw words never crossed a lossy wire")
	}
	if st.Sched.Shards != 4 || st.Sched.Syncs == 0 {
		t.Fatalf("reliable cluster fell back to one engine: shards=%d syncs=%d", st.Sched.Shards, st.Sched.Syncs)
	}
}

// TestCircuitWireFormat pins what a circuit message is on the wire: one
// OpStream fragment header announcing the whole message, then nothing
// but headerless raw words. The sender's CKS is held in reset so the
// endpoint FIFO keeps everything the channel emitted.
func TestCircuitWireFormat(t *testing.T) {
	const n = 100 // 12 full 8-int words and one of 4
	c := busCluster(t, 2, PortSpec{Port: 0, Type: Int, Mode: ModeCircuit, BufferElems: 256})
	c.ranks[0].dev.SetSendPaused(true)
	c.OnRank(0, "s", func(x *Ctx) {
		ch, err := x.OpenSendChannel(n, Int, 1, 0, x.CommWorld())
		if err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < n; i++ {
			Push(ch, int32(i))
		}
	})
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	wire := c.ranks[0].eps[0].appSend
	hdr, ok := wire.TryPop()
	if !ok || hdr.Op != packet.OpStream || hdr.Src != 0 || hdr.Dst != 1 || hdr.Port != 0 {
		t.Fatalf("first packet %v, want an OpStream header 0->1 port 0", hdr)
	}
	epp := packet.RawElemsPerPacket(Int)
	words := (n + epp - 1) / epp
	want := packet.StreamFrag{Seq: 0, Words: uint32(words), Elems: n, Last: true}
	if got := packet.DecodeStreamFrag(hdr); got != want {
		t.Fatalf("header %+v, want %+v", got, want)
	}
	next := 0
	for w := 0; w < words; w++ {
		p, ok := wire.TryPop()
		if !ok || p.Op != packet.OpRaw {
			t.Fatalf("word %d: %v (present %v), want OpRaw", w, p, ok)
		}
		for i := 0; i < int(p.Count); i++ {
			if got := packet.BitsInt(p.RawElem(i, Int)); got != int32(next) {
				t.Fatalf("word %d element %d = %d, want %d", w, i, got, next)
			}
			next++
		}
	}
	if next != n {
		t.Fatalf("raw words carried %d elements, want %d", next, n)
	}
	if p, ok := wire.TryPop(); ok {
		t.Fatalf("extra packet %v after the message", p)
	}
}
