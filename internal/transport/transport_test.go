package transport

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/link"
	"repro/internal/packet"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topology"
)

// testNet is a cluster of transport layers wired per a topology, with
// one send and one receive endpoint per (device, port).
type testNet struct {
	eng     *sim.Engine
	devices []*Device
	send    map[[2]int]*sim.Fifo[packet.Packet] // [rank, port] -> app->CKS fifo
	recv    map[[2]int]*sim.Fifo[packet.Packet] // [rank, port] -> CKR->app fifo
}

func buildNet(t *testing.T, topo *topology.Topology, ports []int, cfg Config, linkLatency int64) *testNet {
	t.Helper()
	routes, err := routing.Compute(topo, routing.ShortestPath)
	if err != nil {
		t.Fatal(err)
	}
	n := &testNet{
		eng:  sim.NewEngine(),
		send: make(map[[2]int]*sim.Fifo[packet.Packet]),
		recv: make(map[[2]int]*sim.Fifo[packet.Packet]),
	}
	for r := 0; r < topo.Devices; r++ {
		var bindings []PortBinding
		for i, p := range ports {
			s := sim.NewFifo[packet.Packet](n.eng, fmt.Sprintf("app%d.%d.send", r, p), 8)
			v := sim.NewFifo[packet.Packet](n.eng, fmt.Sprintf("app%d.%d.recv", r, p), 8)
			bindings = append(bindings, PortBinding{Port: p, Iface: i % topo.Ifaces, Send: s, Recv: v})
			n.send[[2]int{r, p}] = s
			n.recv[[2]int{r, p}] = v
		}
		d, err := New(n.eng, r, topo.Ifaces, routes, bindings, cfg)
		if err != nil {
			t.Fatal(err)
		}
		n.devices = append(n.devices, d)
	}
	for _, c := range topo.Connections {
		a, b := c.A, c.B
		link.New(n.eng, n.eng, fmt.Sprintf("%s->%s", a, b),
			n.devices[a.Device].NetOut(a.Iface), n.devices[b.Device].NetIn(b.Iface), linkLatency)
		link.New(n.eng, n.eng, fmt.Sprintf("%s->%s", b, a),
			n.devices[b.Device].NetOut(b.Iface), n.devices[a.Device].NetIn(a.Iface), linkLatency)
	}
	return n
}

func dataPacket(src, dst, port, seq int) packet.Packet {
	p := packet.Packet{Src: uint16(src), Dst: uint16(dst), Port: uint8(port), Op: packet.OpData, Count: 7}
	p.PutElem(0, packet.Int, packet.IntBits(int32(seq)))
	return p
}

// stream pushes n sequenced packets from (src,port) to (dst,port) and
// pops them at the destination, failing on order or payload mismatch.
func (n *testNet) stream(t *testing.T, src, dst, port, count int) {
	t.Helper()
	sf := n.send[[2]int{src, port}]
	rf := n.recv[[2]int{dst, port}]
	sim.NewProc(n.eng, fmt.Sprintf("sender%d", src), func(p *sim.Proc) {
		for i := 0; i < count; i++ {
			sf.PushProc(p, dataPacket(src, dst, port, i))
		}
	})
	sim.NewProc(n.eng, fmt.Sprintf("receiver%d", dst), func(p *sim.Proc) {
		for i := 0; i < count; i++ {
			pkt := rf.PopProc(p)
			if got := packet.BitsInt(pkt.Elem(0, packet.Int)); got != int32(i) {
				t.Errorf("packet %d out of order: got seq %d", i, got)
				return
			}
			if int(pkt.Src) != src {
				t.Errorf("packet %d has src %d, want %d", i, pkt.Src, src)
				return
			}
		}
	})
}

func TestPointToPointDirectLink(t *testing.T) {
	topo, _ := topology.Bus(2)
	n := buildNet(t, topo, []int{0}, DefaultConfig(), 10)
	n.stream(t, 0, 1, 0, 100)
	if err := n.eng.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestMultiHopForwarding(t *testing.T) {
	topo, _ := topology.Bus(4)
	n := buildNet(t, topo, []int{0}, DefaultConfig(), 10)
	n.stream(t, 0, 3, 0, 50)
	if err := n.eng.Run(); err != nil {
		t.Fatal(err)
	}
	// Intermediate devices 1 and 2 must have forwarded the traffic.
	for _, mid := range []int{1, 2} {
		cks, ckr := n.devices[mid].Forwarded()
		if cks == 0 || ckr == 0 {
			t.Errorf("device %d did not forward (cks=%d ckr=%d)", mid, cks, ckr)
		}
	}
}

func TestIntraRankLoopback(t *testing.T) {
	// "Channels can also be used to communicate between two applications
	// that exist within the same rank using matching ports."
	topo, _ := topology.Bus(2)
	n := buildNet(t, topo, []int{0, 1}, DefaultConfig(), 10)
	n.stream(t, 0, 0, 1, 25) // rank 0 to itself on port 1
	if err := n.eng.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestCrossIfacePortDelivery(t *testing.T) {
	// Port 2 is bound to iface 2, but traffic between adjacent bus
	// devices arrives on iface East/West: delivery requires CKR->CKR
	// (and app->CKS_2->CKS_exit) crossbar hops.
	topo, _ := topology.Bus(2)
	n := buildNet(t, topo, []int{0, 1, 2}, DefaultConfig(), 10)
	n.stream(t, 0, 1, 2, 40)
	if err := n.eng.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestTorusAllPairs(t *testing.T) {
	topo, _ := topology.Torus2D(2, 4)
	n := buildNet(t, topo, []int{0}, DefaultConfig(), 5)
	// Every rank streams to the diagonal opposite under a shifted
	// pattern so that all devices send and receive concurrently.
	for r := 0; r < 8; r++ {
		n.stream(t, r, (r+3)%8, 0, 30)
	}
	if err := n.eng.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestBidirectionalSimultaneous(t *testing.T) {
	topo, _ := topology.Bus(2)
	n := buildNet(t, topo, []int{0, 1}, DefaultConfig(), 10)
	n.stream(t, 0, 1, 0, 60)
	n.stream(t, 1, 0, 1, 60)
	if err := n.eng.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestUnknownPortDropped(t *testing.T) {
	topo, _ := topology.Bus(2)
	n := buildNet(t, topo, []int{0}, DefaultConfig(), 10)
	sf := n.send[[2]int{0, 0}]
	sim.NewProc(n.eng, "sender", func(p *sim.Proc) {
		pkt := dataPacket(0, 1, 0, 0)
		pkt.Port = 99 // unbound port at the destination
		sf.PushProc(p, pkt)
		// Also exercise the recoverability: a valid packet after the bad one.
		sf.PushProc(p, dataPacket(0, 1, 0, 1))
	})
	rf := n.recv[[2]int{1, 0}]
	sim.NewProc(n.eng, "receiver", func(p *sim.Proc) {
		pkt := rf.PopProc(p)
		if got := packet.BitsInt(pkt.Elem(0, packet.Int)); got != 1 {
			t.Errorf("expected the valid packet (seq 1), got seq %d", got)
		}
	})
	if err := n.eng.Run(); err != nil {
		t.Fatal(err)
	}
	if n.devices[1].Dropped() != 1 {
		t.Fatalf("dropped = %d, want 1", n.devices[1].Dropped())
	}
}

func TestInvalidBindingRejected(t *testing.T) {
	topo, _ := topology.Bus(2)
	routes, _ := routing.Compute(topo, routing.ShortestPath)
	e := sim.NewEngine()
	_, err := New(e, 0, 4, routes, []PortBinding{{Port: 0, Iface: 9}}, DefaultConfig())
	if err == nil {
		t.Fatal("out-of-range iface must be rejected")
	}
	f := sim.NewFifo[packet.Packet](e, "f", 4)
	_, err = New(e, 0, 4, routes, []PortBinding{
		{Port: 0, Iface: 0, Send: f},
		{Port: 0, Iface: 1, Send: f},
	}, DefaultConfig())
	if err == nil {
		t.Fatal("duplicate port binding must be rejected")
	}
}

// TestInjectionRateR1 pins the Table 4 anchor: with 4 CKS/CKR pairs and
// one application endpoint, a CKS has 5 inputs (1 app + 1 paired CKR +
// 3 other CKS); at R=1 it serves the application once every 5 cycles.
func TestInjectionRateR1(t *testing.T) {
	got := measureInjection(t, 1, 2000)
	if got < 4.8 || got > 5.2 {
		t.Fatalf("injection latency at R=1 = %.2f cycles/packet, want ~5 (paper Table 4)", got)
	}
}

func TestInjectionRateDecreasesWithR(t *testing.T) {
	prev := measureInjection(t, 1, 2000)
	for _, r := range []int{4, 8, 16} {
		cur := measureInjection(t, r, 2000)
		if cur >= prev {
			t.Fatalf("injection latency should fall with R: R=%d gave %.2f >= %.2f", r, cur, prev)
		}
		prev = cur
	}
	if prev < 1.0 {
		t.Fatalf("injection latency cannot beat 1 cycle/packet, got %.2f", prev)
	}
}

// measureInjection returns cycles per packet sustained by a single
// sender through a 4-interface transport layer.
func measureInjection(t *testing.T, r int, packets int) float64 {
	t.Helper()
	topo, _ := topology.Bus(2)
	cfg := DefaultConfig()
	cfg.R = r
	n := buildNet(t, topo, []int{0}, cfg, 10)
	sf := n.send[[2]int{0, 0}]
	rf := n.recv[[2]int{1, 0}]

	var start, end int64
	sim.NewProc(n.eng, "sender", func(p *sim.Proc) {
		start = p.Now()
		for i := 0; i < packets; i++ {
			sf.PushProc(p, dataPacket(0, 1, 0, i))
		}
		end = p.Now()
	})
	sim.NewProc(n.eng, "receiver", func(p *sim.Proc) {
		for i := 0; i < packets; i++ {
			rf.PopProc(p)
		}
	})
	if err := n.eng.Run(); err != nil {
		t.Fatal(err)
	}
	return float64(end-start) / float64(packets)
}

func TestSkipIdleArbiterInjection(t *testing.T) {
	// With the priority-encoder arbiter a single sender is served almost
	// every cycle even at R=1, instead of every 5th.
	topo, _ := topology.Bus(2)
	cfg := Config{R: 1, Arbiter: ArbiterSkipIdle}
	n := buildNet(t, topo, []int{0}, cfg, 10)
	sf := n.send[[2]int{0, 0}]
	rf := n.recv[[2]int{1, 0}]
	const packets = 2000
	var start, end int64
	sim.NewProc(n.eng, "sender", func(p *sim.Proc) {
		start = p.Now()
		for i := 0; i < packets; i++ {
			sf.PushProc(p, dataPacket(0, 1, 0, i))
		}
		end = p.Now()
	})
	sim.NewProc(n.eng, "receiver", func(p *sim.Proc) {
		for i := 0; i < packets; i++ {
			rf.PopProc(p)
		}
	})
	if err := n.eng.Run(); err != nil {
		t.Fatal(err)
	}
	perMsg := float64(end-start) / packets
	if perMsg > 1.6 {
		t.Fatalf("skip-idle injection = %.2f cycles/msg, want near 1", perMsg)
	}
}

func TestCircuitLockAtTransportLevel(t *testing.T) {
	// A whole-message fragment — an OpStream header with Words = N, i.e.
	// a circuit — followed by its raw words must arrive intact and in
	// order across an intermediate hop (every CK on the path locks once).
	topo, _ := topology.Bus(3)
	n := buildNet(t, topo, []int{0}, DefaultConfig(), 10)
	sf := n.send[[2]int{0, 0}]
	rf := n.recv[[2]int{2, 0}]
	const raws = 40
	sim.NewProc(n.eng, "sender", func(p *sim.Proc) {
		hdr := packet.EncodeStreamFrag(0, 2, 0, packet.StreamFrag{Words: raws, Elems: raws * 8, Last: true})
		sf.PushProc(p, hdr)
		for i := 0; i < raws; i++ {
			raw := packet.Packet{Op: packet.OpRaw, Count: 8}
			raw.PutRawElem(0, packet.Int, packet.IntBits(int32(i)))
			sf.PushProc(p, raw)
		}
	})
	sim.NewProc(n.eng, "receiver", func(p *sim.Proc) {
		first := rf.PopProc(p)
		if first.Op != packet.OpStream {
			t.Errorf("expected the STREAM header first, got %v", first.Op)
			return
		}
		for i := 0; i < raws; i++ {
			raw := rf.PopProc(p)
			if raw.Op != packet.OpRaw {
				t.Errorf("packet %d: expected RAW, got %v", i, raw.Op)
				return
			}
			if got := packet.BitsInt(raw.RawElem(0, packet.Int)); got != int32(i) {
				t.Errorf("raw packet %d out of order: %d", i, got)
				return
			}
		}
	})
	if err := n.eng.Run(); err != nil {
		t.Fatal(err)
	}
}

// Every FIFO and kernel of a device keeps the name it had when each was
// formatted eagerly: the FIFOs in registration order (network ports,
// CKS/CKR pairs, crossbars), then CKS_q and CKR_q.
func TestDeviceNames(t *testing.T) {
	for _, ifaces := range []int{1, 2, 4} {
		const rank = 3
		d, err := New(sim.NewEngine(), rank, ifaces, nil, nil, Config{})
		if err != nil {
			t.Fatal(err)
		}
		var want, got []string
		for q := 0; q < ifaces; q++ {
			want = append(want, fmt.Sprintf("dev%d.netout%d", rank, q), fmt.Sprintf("dev%d.netin%d", rank, q))
		}
		for q := 0; q < ifaces; q++ {
			want = append(want, fmt.Sprintf("dev%d.cks2ckr%d", rank, q), fmt.Sprintf("dev%d.ckr2cks%d", rank, q))
		}
		for a := 0; a < ifaces; a++ {
			for b := 0; b < ifaces; b++ {
				if a != b {
					want = append(want, fmt.Sprintf("dev%d.cks%d-cks%d", rank, a, b), fmt.Sprintf("dev%d.ckr%d-ckr%d", rank, a, b))
				}
			}
		}
		for q := 0; q < ifaces; q++ {
			want = append(want, fmt.Sprintf("dev%d.cks%d", rank, q))
		}
		for q := 0; q < ifaces; q++ {
			want = append(want, fmt.Sprintf("dev%d.ckr%d", rank, q))
		}
		for i := range d.fifos {
			got = append(got, d.fifos[i].Name())
		}
		for i := range d.cks {
			got = append(got, d.cks[i].Name())
		}
		for i := range d.ckr {
			got = append(got, d.ckr[i].Name())
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%d ifaces: names\n%q\nwant\n%q", ifaces, got, want)
		}
	}
}
