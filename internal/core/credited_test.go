package smi

import (
	"testing"
	"testing/quick"

	"repro/internal/topology"
)

func TestCreditedChannelDeliversIntact(t *testing.T) {
	// Message far exceeds the buffer: the credited protocol must cycle
	// grants many times and still deliver in order.
	const n = 2000
	c := busCluster(t, 3, PortSpec{Port: 0, Type: Int, Mode: ModeCredited, BufferElems: 56})
	c.OnRank(0, "s", func(x *Ctx) {
		ch, err := x.OpenSendChannel(n, Int, 2, 0, x.CommWorld())
		if err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < n; i++ {
			Push(ch, int32(i*7))
		}
	})
	c.OnRank(2, "r", func(x *Ctx) {
		ch, err := x.OpenRecvChannel(n, Int, 0, 0, x.CommWorld())
		if err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < n; i++ {
			if got := Pop[int32](ch); got != int32(i*7) {
				t.Errorf("element %d = %d", i, got)
				return
			}
		}
	})
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestCreditedSenderNeverOverrunsBuffer(t *testing.T) {
	// The receiver stalls for a long time mid-message; a credited sender
	// must stop after committing at most the buffer (plus what is in
	// flight), instead of jamming the transport.
	const n, k = 1000, 56
	c := busCluster(t, 2, PortSpec{Port: 0, Type: Int, Mode: ModeCredited, BufferElems: k})
	var pushedBeforeStall int
	c.OnRank(0, "s", func(x *Ctx) {
		ch, _ := x.OpenSendChannel(n, Int, 1, 0, x.CommWorld())
		for i := 0; i < n; i++ {
			Push(ch, int32(i))
			if x.Now() < 5000 {
				pushedBeforeStall = i + 1
			}
		}
	})
	c.OnRank(1, "r", func(x *Ctx) {
		x.Sleep(5000) // receiver not ready for a long time
		ch, _ := x.OpenRecvChannel(n, Int, 0, 0, x.CommWorld())
		for i := 0; i < n; i++ {
			Pop[int32](ch)
		}
	})
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if pushedBeforeStall > k+14 {
		t.Fatalf("credited sender pushed %d elements against a stalled receiver (buffer %d)", pushedBeforeStall, k)
	}
}

func TestCreditedHalfDuplexEnforced(t *testing.T) {
	c := busCluster(t, 2, PortSpec{Port: 0, Type: Int, Mode: ModeCredited, BufferElems: 28})
	c.OnRank(0, "s", func(x *Ctx) {
		ch, err := x.OpenSendChannel(100, Int, 1, 0, x.CommWorld())
		if err != nil {
			t.Error(err)
			return
		}
		// The reverse direction is carrying credits: opening a receive
		// channel on the same port must fail.
		if _, err := x.OpenRecvChannel(10, Int, 1, 0, x.CommWorld()); err == nil {
			t.Error("credited port allowed a concurrent recv channel")
		}
		for i := 0; i < 100; i++ {
			Push(ch, int32(1))
		}
	})
	c.OnRank(1, "r", func(x *Ctx) {
		ch, _ := x.OpenRecvChannel(100, Int, 0, 0, x.CommWorld())
		for i := 0; i < 100; i++ {
			Pop[int32](ch)
		}
	})
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestCreditedLoopbackRejected(t *testing.T) {
	c := busCluster(t, 2, PortSpec{Port: 0, Type: Int, Mode: ModeCredited})
	c.OnRank(0, "s", func(x *Ctx) {
		if _, err := x.OpenSendChannel(10, Int, 0, 0, x.CommWorld()); err == nil {
			t.Error("credited loopback accepted")
		}
	})
	c.OnRank(1, "idle", func(x *Ctx) {})
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestCreditedRepeatedMessages(t *testing.T) {
	// Back-to-back credited messages on the same port: no stale credits
	// may leak between channels.
	const n, rounds = 300, 4
	c := busCluster(t, 2, PortSpec{Port: 0, Type: Int, Mode: ModeCredited, BufferElems: 35})
	c.OnRank(0, "s", func(x *Ctx) {
		for r := 0; r < rounds; r++ {
			ch, err := x.OpenSendChannel(n, Int, 1, 0, x.CommWorld())
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < n; i++ {
				Push(ch, int32(r*n+i))
			}
		}
	})
	c.OnRank(1, "r", func(x *Ctx) {
		for r := 0; r < rounds; r++ {
			ch, err := x.OpenRecvChannel(n, Int, 0, 0, x.CommWorld())
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < n; i++ {
				if got := Pop[int32](ch); got != int32(r*n+i) {
					t.Errorf("round %d element %d = %d", r, i, got)
					return
				}
			}
		}
	})
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestCreditedProtectsOtherChannels is the motivating scenario of §3.3:
// a long bulk message on a small buffer must not block other streaming
// messages sharing the transport. With the eager protocol the bulk
// message jams the CKR pipeline (the run deadlocks, which the engine
// diagnoses); with credits it completes.
func TestCreditedProtectsOtherChannels(t *testing.T) {
	run := func(mode Mode) error {
		topo, _ := topology.Bus(2)
		c, err := NewCluster(Config{
			Topology: topo,
			Program: ProgramSpec{Ports: []PortSpec{
				// Both ports pinned to one CKS/CKR pair: the worst case,
				// where bulk and control traffic share every FIFO.
				{Port: 0, Type: Int, Mode: mode, BufferElems: 28, Iface: 0, PinIface: true},
				{Port: 1, Type: Int, BufferElems: 28, Iface: 0, PinIface: true},
			}},
		})
		if err != nil {
			return err
		}
		const bulk = 4000
		c.OnRank(0, "bulk+ctl", func(x *Ctx) {
			bc, err := x.OpenSendChannel(bulk, Int, 1, 0, x.CommWorld())
			if err != nil {
				panic(err)
			}
			for i := 0; i < bulk; i++ {
				Push(bc, int32(i))
			}
		})
		c.OnRank(1, "consumer", func(x *Ctx) {
			// The consumer first serves a short control exchange on port
			// 1, leaving the bulk message unconsumed meanwhile.
			ctl, err := x.OpenRecvChannel(4, Int, 0, 1, x.CommWorld())
			if err != nil {
				panic(err)
			}
			for i := 0; i < 4; i++ {
				Pop[int32](ctl)
			}
			bc, err := x.OpenRecvChannel(bulk, Int, 0, 0, x.CommWorld())
			if err != nil {
				panic(err)
			}
			for i := 0; i < bulk; i++ {
				Pop[int32](bc)
			}
		})
		c.OnRank(0, "ctl-sender", func(x *Ctx) {
			x.Sleep(3000) // the bulk stream is already in full flight
			ctl, err := x.OpenSendChannel(4, Int, 1, 1, x.CommWorld())
			if err != nil {
				panic(err)
			}
			for i := 0; i < 4; i++ {
				Push(ctl, int32(i))
			}
		})
		_, err = c.Run()
		return err
	}
	if err := run(ModeCredited); err != nil {
		t.Fatalf("credited flow control should keep the control channel alive: %v", err)
	}
	if err := run(ModePacket); err == nil {
		t.Fatal("eager mode with a tiny buffer should jam the shared transport (this documents why §3.3 prescribes credits)")
	}
}

// Property: credited channels preserve content for arbitrary message and
// buffer sizes.
func TestCreditedIntegrityQuick(t *testing.T) {
	prop := func(countRaw uint16, bufRaw uint8) bool {
		count := int(countRaw%800) + 1
		buf := int(bufRaw%100) + 7
		topo, _ := topology.Bus(2)
		c, err := NewCluster(Config{
			Topology: topo,
			Program:  ProgramSpec{Ports: []PortSpec{{Port: 0, Type: Int, Mode: ModeCredited, BufferElems: buf}}},
		})
		if err != nil {
			return false
		}
		c.OnRank(0, "s", func(x *Ctx) {
			ch, _ := x.OpenSendChannel(count, Int, 1, 0, x.CommWorld())
			for i := 0; i < count; i++ {
				Push(ch, int32(i))
			}
		})
		okAll := true
		c.OnRank(1, "r", func(x *Ctx) {
			ch, _ := x.OpenRecvChannel(count, Int, 0, 0, x.CommWorld())
			for i := 0; i < count; i++ {
				if Pop[int32](ch) != int32(i) {
					okAll = false
					return
				}
			}
		})
		if _, err := c.Run(); err != nil {
			return false
		}
		return okAll
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
