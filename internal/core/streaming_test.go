package smi

import (
	"testing"
	"testing/quick"

	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/topology"
)

// rawModes are the two modes that move headerless raw words behind
// OpStream fragment headers. They share one data path, so the delivery
// properties (intact, repeated, quick) are one test body run per mode.
var rawModes = []Mode{ModeStreaming, ModeCircuit}

func TestStreamingChannelDeliversIntact(t *testing.T) { rawDeliversIntact(t, ModeStreaming) }
func TestCircuitChannelDeliversIntact(t *testing.T)   { rawDeliversIntact(t, ModeCircuit) }

func rawDeliversIntact(t *testing.T, mode Mode) {
	const n = 555 // not a multiple of any raw packing factor or batch size
	for _, dt := range []Datatype{Char, Short, Int, Float, Double} {
		dt := dt
		t.Run(dt.String(), func(t *testing.T) {
			c := busCluster(t, 4, PortSpec{Port: 0, Type: dt, Mode: mode, BufferElems: 64})
			mask := uint64(1)<<(8*dt.Size()) - 1
			if dt.Size() == 8 {
				mask = ^uint64(0)
			}
			c.OnRank(0, "s", func(x *Ctx) {
				ch, err := x.OpenSendChannel(n, dt, 3, 0, x.CommWorld())
				if err != nil {
					t.Error(err)
					return
				}
				for i := 0; i < n; i++ {
					ch.Push(uint64(i) * 2654435761)
				}
			})
			c.OnRank(3, "r", func(x *Ctx) {
				ch, err := x.OpenRecvChannel(n, dt, 0, 0, x.CommWorld())
				if err != nil {
					t.Error(err)
					return
				}
				for i := 0; i < n; i++ {
					if got := ch.Pop(); got != (uint64(i)*2654435761)&mask {
						t.Errorf("element %d corrupted: %x", i, got)
						return
					}
				}
			})
			st, err := c.Run()
			if err != nil {
				t.Fatal(err)
			}
			if st.StreamFragments == 0 {
				t.Fatal("a message larger than the buffer should have travelled as raw-word fragments")
			}
		})
	}
}

func TestStreamingEagerSwitchover(t *testing.T) {
	// A message that fits the endpoint buffer must ride the plain eager
	// packet path: no rendezvous round-trip, no fragments.
	run := func(count int) Stats {
		c := busCluster(t, 2, PortSpec{Port: 0, Type: Int, Mode: ModeStreaming, BufferElems: 64})
		c.OnRank(0, "s", func(x *Ctx) {
			ch, _ := x.OpenSendChannel(count, Int, 1, 0, x.CommWorld())
			for i := 0; i < count; i++ {
				Push(ch, int32(i))
			}
		})
		c.OnRank(1, "r", func(x *Ctx) {
			ch, _ := x.OpenRecvChannel(count, Int, 0, 0, x.CommWorld())
			for i := 0; i < count; i++ {
				if got := Pop[int32](ch); got != int32(i) {
					t.Errorf("element %d = %d", i, got)
					return
				}
			}
		})
		st, err := c.Run()
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	if st := run(64); st.StreamFragments != 0 {
		t.Fatalf("a buffer-sized message went rendezvous: %d fragments", st.StreamFragments)
	}
	if st := run(65); st.StreamFragments == 0 {
		t.Fatal("a message one element past the buffer should stream")
	}
}

func TestStreamingBulkAPI(t *testing.T) {
	// PushN/PopN and the typed PushSlice/PopSlice move whole buffers.
	const n = 1000
	c := busCluster(t, 3, PortSpec{Port: 0, Type: Float, Mode: ModeStreaming, BufferElems: 64})
	src := make([]float32, n)
	for i := range src {
		src[i] = float32(i) * 0.5
	}
	dst := make([]float32, n)
	c.OnRank(0, "s", func(x *Ctx) {
		ch, err := x.OpenSendChannel(n, Float, 2, 0, x.CommWorld())
		if err != nil {
			t.Error(err)
			return
		}
		if pushed, err := PushSlice(ch, src); err != nil || pushed != n {
			t.Errorf("PushSlice = %d, %v", pushed, err)
		}
	})
	c.OnRank(2, "r", func(x *Ctx) {
		ch, err := x.OpenRecvChannel(n, Float, 0, 0, x.CommWorld())
		if err != nil {
			t.Error(err)
			return
		}
		if popped, err := PopSlice(ch, dst); err != nil || popped != n {
			t.Errorf("PopSlice = %d, %v", popped, err)
		}
	})
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	for i := range src {
		if dst[i] != src[i] {
			t.Fatalf("element %d = %g, want %g", i, dst[i], src[i])
		}
	}
}

func TestStreamingBeatsCreditedBandwidth(t *testing.T) {
	// The acceptance gate in miniature: for a message much larger than
	// the endpoint buffer, the paper's §3.3 prescription is credit-based
	// flow control, whose grant round-trips throttle every buffer's worth
	// of data. The rendezvous pays one round-trip up front and then
	// streams full 32-byte words, so it must win by a wide margin.
	run := func(spec PortSpec) int64 {
		const n = 8192
		topo, _ := topology.Bus(4)
		c, err := NewCluster(Config{
			Topology: topo,
			Program:  ProgramSpec{Ports: []PortSpec{spec}},
		})
		if err != nil {
			t.Fatal(err)
		}
		c.OnRank(0, "s", func(x *Ctx) {
			ch, _ := x.OpenSendChannel(n, Int, 3, 0, x.CommWorld())
			for i := 0; i < n; i++ {
				Push(ch, int32(i))
			}
		})
		c.OnRank(3, "r", func(x *Ctx) {
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
	credited := run(PortSpec{Port: 0, Type: Int, Mode: ModeCredited, VecWidth: 8, BufferElems: 64})
	streaming := run(PortSpec{Port: 0, Type: Int, Mode: ModeStreaming, VecWidth: 8, BufferElems: 64})
	if float64(streaming) > 0.5*float64(credited) {
		t.Fatalf("streaming (%d cycles) should be at least 2x faster than credited (%d) for buffer-dwarfing messages", streaming, credited)
	}
}

func TestStreamingFairerThanCircuit(t *testing.T) {
	// Fair release: a circuit holds shared kernels for the whole message,
	// a stream only per fragment, so a small concurrent control message
	// finishes much earlier alongside a stream than alongside a circuit.
	run := func(bulkSpec PortSpec) int64 {
		const bulk = 14000
		topo, _ := topology.Bus(2)
		c, err := NewCluster(Config{
			Topology: topo,
			Program: ProgramSpec{Ports: []PortSpec{
				bulkSpec,
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
			x.Sleep(500) // the bulk message is already flowing
			ch, _ := x.OpenSendChannel(4, Int, 1, 1, x.CommWorld())
			for i := 0; i < 4; i++ {
				Push(ch, int32(i))
			}
		})
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
	circ := run(PortSpec{Port: 0, Type: Int, Mode: ModeCircuit, VecWidth: 8, BufferElems: 1024, Iface: 0, PinIface: true})
	strm := run(PortSpec{Port: 0, Type: Int, Mode: ModeStreaming, VecWidth: 8, BufferElems: 1024, Iface: 0, PinIface: true})
	if float64(strm) > 0.5*float64(circ) {
		t.Fatalf("fragment-bounded locks should release the shared kernel: ctl done at %d (streaming) vs %d (circuit)", strm, circ)
	}
}

func TestStreamingValidation(t *testing.T) {
	bad := ProgramSpec{Ports: []PortSpec{{Port: 0, Kind: Bcast, Type: Int, Mode: ModeStreaming}}}
	if err := bad.Validate(); err == nil {
		t.Fatal("streaming collective accepted")
	}
	// Half-duplex: a streaming port cannot loop back to its own rank.
	c := busCluster(t, 2, PortSpec{Port: 0, Type: Int, Mode: ModeStreaming})
	c.OnRank(0, "s", func(x *Ctx) {
		if _, err := x.OpenSendChannel(10, Int, 0, 0, x.CommWorld()); err == nil {
			t.Error("self-targeted streaming channel accepted")
		}
	})
	c.OnRank(1, "idle", func(x *Ctx) {})
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestStreamingRepeatedMessages(t *testing.T) { rawRepeatedMessages(t, ModeStreaming) }
func TestCircuitRepeatedMessages(t *testing.T)   { rawRepeatedMessages(t, ModeCircuit) }

func rawRepeatedMessages(t *testing.T, mode Mode) {
	// Back-to-back messages on one port reuse the endpoint cleanly each
	// round. Under streaming the sizes alternate rendezvous and eager;
	// under circuit every one is a single fragment.
	const rounds = 4
	counts := []int{300, 16, 200, 64} // stream, eager, stream, eager
	c := busCluster(t, 2, PortSpec{Port: 0, Type: Int, Mode: mode, BufferElems: 64, StreamBatch: 4})
	c.OnRank(0, "s", func(x *Ctx) {
		for r := 0; r < rounds; r++ {
			ch, err := x.OpenSendChannel(counts[r], Int, 1, 0, x.CommWorld())
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < counts[r]; i++ {
				Push(ch, int32(r*1000+i))
			}
		}
	})
	c.OnRank(1, "r", func(x *Ctx) {
		for r := 0; r < rounds; r++ {
			ch, err := x.OpenRecvChannel(counts[r], Int, 0, 0, x.CommWorld())
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < counts[r]; i++ {
				if got := Pop[int32](ch); got != int32(r*1000+i) {
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

func TestStreamingIntegrityQuick(t *testing.T) { rawIntegrityQuick(t, ModeStreaming) }
func TestCircuitIntegrityQuick(t *testing.T)   { rawIntegrityQuick(t, ModeCircuit) }

// Property: raw-word channels preserve arbitrary messages across hop
// counts, buffer sizes, and batch sizes — eager and rendezvous alike
// under streaming, one fragment whatever the batch under circuit.
func rawIntegrityQuick(t *testing.T, mode Mode) {
	prop := func(countRaw uint16, bufRaw, batchRaw, dstRaw uint8) bool {
		count := int(countRaw%600) + 1
		buf := int(bufRaw%200) + 8
		batch := int(batchRaw%30) + 1
		topo, _ := topology.Bus(4)
		dst := 1 + int(dstRaw)%3
		c, err := NewCluster(Config{
			Topology: topo,
			Program: ProgramSpec{Ports: []PortSpec{
				{Port: 0, Type: Int, Mode: mode, BufferElems: buf, StreamBatch: batch},
			}},
		})
		if err != nil {
			return false
		}
		c.OnRank(0, "s", func(x *Ctx) {
			ch, _ := x.OpenSendChannel(count, Int, dst, 0, x.CommWorld())
			for i := 0; i < count; i++ {
				Push(ch, int32(i))
			}
		})
		okAll := true
		c.OnRank(dst, "r", func(x *Ctx) {
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

// streamingParityRun executes one multi-hop streaming transfer plus a
// concurrent reverse eager message under the given scheduler and fault
// spec, returning the stats and a digest of everything delivered.
func streamingParityRun(t *testing.T, kind sim.SchedulerKind, shards int, spec *fault.Spec, mode Mode) (Stats, uint64) {
	t.Helper()
	const n = 2000
	topo, err := topology.Bus(4)
	if err != nil {
		t.Fatal(err)
	}
	port := PortSpec{Port: 0, Type: Int, Mode: mode, BufferElems: 64, StreamBatch: 8}
	c, err := NewCluster(Config{
		Topology:  topo,
		Program:   ProgramSpec{Ports: []PortSpec{port, {Port: 1, Type: Int}}},
		Scheduler: kind,
		Shards:    shards,
		Faults:    spec,
	})
	if err != nil {
		t.Fatal(err)
	}
	// One digest per consumer, combined in a fixed order after the run:
	// the consumers execute concurrently (on different engines under
	// SchedShardAdaptive), so mixing into a shared accumulator would race.
	var bulkDig, ctlDig uint64 = 14695981039346656037, 14695981039346656037
	mix := func(d *uint64, v uint64) {
		*d ^= v
		*d *= 1099511628211
	}
	c.OnRank(0, "s", func(x *Ctx) {
		ch, err := x.OpenSendChannel(n, Int, 3, 0, x.CommWorld())
		if err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < n; i++ {
			Push(ch, int32(i*3))
		}
	})
	c.OnRank(3, "r", func(x *Ctx) {
		ch, err := x.OpenRecvChannel(n, Int, 0, 0, x.CommWorld())
		if err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < n; i++ {
			mix(&bulkDig, uint64(uint32(Pop[int32](ch))))
		}
		mix(&bulkDig, uint64(x.Now()))
	})
	// A concurrent reverse-direction eager message keeps the shared
	// kernels contended, so the parity check covers arbitration too.
	c.OnRank(3, "ctl-s", func(x *Ctx) {
		ch, _ := x.OpenSendChannel(100, Int, 0, 1, x.CommWorld())
		for i := 0; i < 100; i++ {
			Push(ch, int32(i))
		}
	})
	c.OnRank(0, "ctl-r", func(x *Ctx) {
		ch, _ := x.OpenRecvChannel(100, Int, 3, 1, x.CommWorld())
		for i := 0; i < 100; i++ {
			mix(&ctlDig, uint64(uint32(Pop[int32](ch))))
		}
		mix(&ctlDig, uint64(x.Now()))
	})
	st, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	digest := bulkDig
	mix(&digest, ctlDig)
	return st, digest
}

// TestStreamingSchedulerParity pins the determinism contract for the
// streaming and circuit paths: the dense oracle, the event scheduler,
// and the shard-adaptive scheduler (at 2 and 4 workers) must agree bit
// for bit on delivered data, completion times, and cycle counts —
// pristine and under fault injection, where the reliable layer's
// raw-word sideband is on the line.
func TestStreamingSchedulerParity(t *testing.T) {
	specs := map[string]*fault.Spec{
		"pristine": nil,
		"faulty":   {Seed: 11, DropProb: 0.002},
	}
	for _, mode := range rawModes {
		for name, spec := range specs {
			t.Run(mode.String()+"/"+name, func(t *testing.T) {
				refSt, refDig := streamingParityRun(t, sim.SchedDense, 0, spec, mode)
				if refSt.StreamFragments == 0 {
					t.Fatal("parity workload did not exercise the raw-word path")
				}
				if spec != nil && refSt.Retransmits == 0 {
					t.Fatal("fault spec injected nothing; the parity leg is vacuous")
				}
				for _, v := range []struct {
					name   string
					kind   sim.SchedulerKind
					shards int
				}{
					{"event", sim.SchedEvent, 0},
					{"shard2", sim.SchedShardAdaptive, 2},
					{"shard4", sim.SchedShardAdaptive, 4},
				} {
					st, dig := streamingParityRun(t, v.kind, v.shards, spec, mode)
					if dig != refDig {
						t.Errorf("%s: digest %x, dense %x", v.name, dig, refDig)
					}
					if st.Cycles != refSt.Cycles {
						t.Errorf("%s: cycles %d, dense %d", v.name, st.Cycles, refSt.Cycles)
					}
					if st.PacketsDelivered != refSt.PacketsDelivered {
						t.Errorf("%s: delivered %d, dense %d", v.name, st.PacketsDelivered, refSt.PacketsDelivered)
					}
					if v.shards > 1 && (st.Sched.Shards != v.shards || st.Sched.Syncs == 0) {
						t.Errorf("%s did not run in parallel: shards=%d syncs=%d", v.name, st.Sched.Shards, st.Sched.Syncs)
					}
				}
			})
		}
	}
}
