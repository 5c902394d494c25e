package smi

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/sim"
	"repro/internal/topology"
)

func busCluster(t testing.TB, n int, ports ...PortSpec) *Cluster {
	t.Helper()
	topo, err := topology.Bus(n)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCluster(Config{Topology: topo, Program: ProgramSpec{Ports: ports}})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func torusCluster(t *testing.T, rows, cols int, ports ...PortSpec) *Cluster {
	t.Helper()
	topo, err := topology.Torus2D(rows, cols)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCluster(Config{Topology: topo, Program: ProgramSpec{Ports: ports}})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestListing1 reproduces the paper's Listing 1: an MPMD program where
// rank 0 streams N integers to rank 1.
func TestListing1(t *testing.T) {
	const n = 100
	c := busCluster(t, 2, PortSpec{Port: 0, Type: Int})
	c.OnRank(0, "rank0", func(x *Ctx) {
		chs, err := x.OpenSendChannel(n, Int, 1, 0, x.CommWorld())
		if err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < n; i++ {
			Push(chs, int32(i*3))
		}
	})
	var got []int32
	c.OnRank(1, "rank1", func(x *Ctx) {
		chr, err := x.OpenRecvChannel(n, Int, 0, 0, x.CommWorld())
		if err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < n; i++ {
			got = append(got, Pop[int32](chr))
		}
	})
	st, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != int32(i*3) {
			t.Fatalf("element %d = %d, want %d", i, v, i*3)
		}
	}
	if st.Cycles <= 0 || st.PacketsDelivered == 0 {
		t.Fatalf("implausible stats: %+v", st)
	}
	if st.PacketsDropped != 0 {
		t.Fatalf("dropped packets: %+v", st)
	}
}

func TestAllDatatypesRoundtrip(t *testing.T) {
	const n = 37 // deliberately not a multiple of any packing factor
	cases := []struct {
		dt   Datatype
		push func(ch *SendChannel, i int)
		pop  func(ch *RecvChannel, i int) error
	}{
		{Char,
			func(ch *SendChannel, i int) { Push(ch, byte(i)) },
			func(ch *RecvChannel, i int) error {
				if got := Pop[byte](ch); got != byte(i) {
					return fmt.Errorf("char %d: got %d", i, got)
				}
				return nil
			}},
		{Short,
			func(ch *SendChannel, i int) { Push(ch, int16(-i*7)) },
			func(ch *RecvChannel, i int) error {
				if got := Pop[int16](ch); got != int16(-i*7) {
					return fmt.Errorf("short %d: got %d", i, got)
				}
				return nil
			}},
		{Int,
			func(ch *SendChannel, i int) { Push(ch, int32(i*1000003)) },
			func(ch *RecvChannel, i int) error {
				if got := Pop[int32](ch); got != int32(i*1000003) {
					return fmt.Errorf("int %d: got %d", i, got)
				}
				return nil
			}},
		{Float,
			func(ch *SendChannel, i int) { Push(ch, float32(i)*0.5) },
			func(ch *RecvChannel, i int) error {
				if got := Pop[float32](ch); got != float32(i)*0.5 {
					return fmt.Errorf("float %d: got %g", i, got)
				}
				return nil
			}},
		{Double,
			func(ch *SendChannel, i int) { Push(ch, float64(i)*0.25) },
			func(ch *RecvChannel, i int) error {
				if got := Pop[float64](ch); got != float64(i)*0.25 {
					return fmt.Errorf("double %d: got %g", i, got)
				}
				return nil
			}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.dt.String(), func(t *testing.T) {
			c := busCluster(t, 2, PortSpec{Port: 0, Type: tc.dt})
			c.OnRank(0, "send", func(x *Ctx) {
				ch, err := x.OpenSendChannel(n, tc.dt, 1, 0, x.CommWorld())
				if err != nil {
					t.Error(err)
					return
				}
				for i := 0; i < n; i++ {
					tc.push(ch, i)
				}
			})
			c.OnRank(1, "recv", func(x *Ctx) {
				ch, err := x.OpenRecvChannel(n, tc.dt, 0, 0, x.CommWorld())
				if err != nil {
					t.Error(err)
					return
				}
				for i := 0; i < n; i++ {
					if err := tc.pop(ch, i); err != nil {
						t.Error(err)
						return
					}
				}
			})
			if _, err := c.Run(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestMultiHopMessage(t *testing.T) {
	// Rank 0 to rank 7 over a bus: 7 hops, transparent forwarding.
	const n = 64
	c := busCluster(t, 8, PortSpec{Port: 0, Type: Int})
	c.OnRank(0, "send", func(x *Ctx) {
		ch, _ := x.OpenSendChannel(n, Int, 7, 0, x.CommWorld())
		for i := 0; i < n; i++ {
			Push(ch, int32(i))
		}
	})
	c.OnRank(7, "recv", func(x *Ctx) {
		ch, _ := x.OpenRecvChannel(n, Int, 0, 0, x.CommWorld())
		for i := 0; i < n; i++ {
			if got := Pop[int32](ch); got != int32(i) {
				t.Errorf("element %d = %d", i, got)
				return
			}
		}
	})
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestSendToSelf(t *testing.T) {
	// Intra-rank channels between two kernels on the same rank.
	const n = 20
	c := busCluster(t, 2, PortSpec{Port: 0, Type: Int})
	c.OnRank(0, "producer", func(x *Ctx) {
		ch, err := x.OpenSendChannel(n, Int, 0, 0, x.CommWorld())
		if err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < n; i++ {
			Push(ch, int32(i+5))
		}
	})
	c.OnRank(0, "consumer", func(x *Ctx) {
		ch, err := x.OpenRecvChannel(n, Int, 0, 0, x.CommWorld())
		if err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < n; i++ {
			if got := Pop[int32](ch); got != int32(i+5) {
				t.Errorf("element %d = %d", i, got)
				return
			}
		}
	})
	c.OnRank(1, "idle", func(x *Ctx) {})
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestSPMDNeighborExchange(t *testing.T) {
	// Every rank sends to its right neighbor and receives from its left
	// (ring pattern over the torus wiring), SPMD-style.
	const n = 16
	c := torusCluster(t, 2, 4,
		PortSpec{Port: 0, Type: Int}, // send right / recv left
	)
	c.SPMD("ring", func(x *Ctx) {
		world := x.CommWorld()
		right := (x.Rank() + 1) % x.Size()
		left := (x.Rank() + x.Size() - 1) % x.Size()
		chs, err := x.OpenSendChannel(n, Int, right, 0, world)
		if err != nil {
			t.Error(err)
			return
		}
		chr, err := x.OpenRecvChannel(n, Int, left, 0, world)
		if err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < n; i++ {
			Push(chs, int32(x.Rank()*100+i))
		}
		for i := 0; i < n; i++ {
			want := int32(left*100 + i)
			if got := Pop[int32](chr); got != want {
				t.Errorf("rank %d element %d = %d, want %d", x.Rank(), i, got, want)
				return
			}
		}
	})
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestOpenValidation(t *testing.T) {
	c := busCluster(t, 2,
		PortSpec{Port: 0, Type: Int},
		PortSpec{Port: 1, Kind: Bcast, Type: Float},
	)
	c.OnRank(0, "checks", func(x *Ctx) {
		w := x.CommWorld()
		if _, err := x.OpenSendChannel(0, Int, 1, 0, w); err == nil {
			t.Error("count 0 accepted")
		}
		if _, err := x.OpenSendChannel(10, Int, 1, 42, w); err == nil {
			t.Error("undeclared port accepted")
		}
		if _, err := x.OpenSendChannel(10, Float, 1, 0, w); err == nil {
			t.Error("datatype mismatch accepted")
		}
		if _, err := x.OpenSendChannel(10, Int, 5, 0, w); err == nil {
			t.Error("destination outside communicator accepted")
		}
		if _, err := x.OpenSendChannel(10, Float, 1, 1, w); err == nil {
			t.Error("p2p open on bcast port accepted")
		}
		if _, err := x.OpenBcastChannel(10, Int, 0, 0, w); err == nil {
			t.Error("bcast open on p2p port accepted")
		}
		ch, err := x.OpenSendChannel(10, Int, 1, 0, w)
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := x.OpenSendChannel(10, Int, 1, 0, w); err == nil {
			t.Error("double open accepted")
		}
		for i := 0; i < 10; i++ {
			Push(ch, int32(1))
		}
		// After the channel closed implicitly, the port is free again.
		ch2, err := x.OpenSendChannel(5, Int, 1, 0, w)
		if err != nil {
			t.Errorf("reopen after close failed: %v", err)
			return
		}
		for i := 0; i < 5; i++ {
			Push(ch2, int32(i))
		}
	})
	c.OnRank(1, "recv", func(x *Ctx) {
		ch, _ := x.OpenRecvChannel(10, Int, 0, 0, x.CommWorld())
		for i := 0; i < 10; i++ {
			Pop[int32](ch)
		}
		ch2, _ := x.OpenRecvChannel(5, Int, 0, 0, x.CommWorld())
		for i := 0; i < 5; i++ {
			Pop[int32](ch2)
		}
	})
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestPushOverrunPanicsAsError(t *testing.T) {
	c := busCluster(t, 2, PortSpec{Port: 0, Type: Int})
	c.OnRank(0, "bad", func(x *Ctx) {
		ch, _ := x.OpenSendChannel(1, Int, 1, 0, x.CommWorld())
		Push(ch, int32(1))
		Push(ch, int32(2)) // beyond count: must panic
	})
	c.OnRank(1, "recv", func(x *Ctx) {
		ch, _ := x.OpenRecvChannel(1, Int, 0, 0, x.CommWorld())
		Pop[int32](ch)
	})
	if _, err := c.Run(); err == nil {
		t.Fatal("expected an error from the overrun")
	}
}

func TestDeadlockDetected(t *testing.T) {
	// Two ranks that both receive before sending: a protocol deadlock
	// the engine must diagnose.
	const n = 4096 // far beyond any buffering
	c := busCluster(t, 2,
		PortSpec{Port: 0, Type: Int, BufferElems: 14},
		PortSpec{Port: 1, Type: Int, BufferElems: 14},
	)
	body := func(x *Ctx) {
		other := 1 - x.Rank()
		recvPort, sendPort := x.Rank(), other
		chr, _ := x.OpenRecvChannel(n, Int, other, recvPort, x.CommWorld())
		for i := 0; i < n; i++ {
			Pop[int32](chr)
		}
		chs, _ := x.OpenSendChannel(n, Int, other, sendPort, x.CommWorld())
		for i := 0; i < n; i++ {
			Push(chs, int32(0))
		}
	}
	c.OnRank(0, "a", body)
	c.OnRank(1, "b", body)
	_, err := c.Run()
	var dl *sim.DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("expected deadlock, got %v", err)
	}
}

func TestBcastCorrectness(t *testing.T) {
	for _, ranks := range []int{2, 4, 8} {
		for _, root := range []int{0, ranks - 1} {
			ranks, root := ranks, root
			t.Run(fmt.Sprintf("ranks=%d root=%d", ranks, root), func(t *testing.T) {
				const n = 50
				c := busCluster(t, ranks, PortSpec{Port: 0, Kind: Bcast, Type: Float})
				c.SPMD("bcast", func(x *Ctx) {
					ch, err := x.OpenBcastChannel(n, Float, 0, root, x.CommWorld())
					if err != nil {
						t.Error(err)
						return
					}
					for i := 0; i < n; i++ {
						v := float32(-1)
						if ch.Root() {
							v = float32(i) * 1.5
						}
						got := ch.BcastFloat(v)
						if got != float32(i)*1.5 {
							t.Errorf("rank %d element %d = %g", x.Rank(), i, got)
							return
						}
					}
				})
				if _, err := c.Run(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

func TestBcastRepeatedRounds(t *testing.T) {
	// The same port must be reusable across successive collective rounds
	// with different dynamically-chosen roots.
	const n, rounds = 10, 4
	c := busCluster(t, 4, PortSpec{Port: 0, Kind: Bcast, Type: Int})
	c.SPMD("rounds", func(x *Ctx) {
		for r := 0; r < rounds; r++ {
			root := r % x.Size()
			ch, err := x.OpenBcastChannel(n, Int, 0, root, x.CommWorld())
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < n; i++ {
				got := ch.BcastInt(int32(root*1000 + i))
				if got != int32(root*1000+i) {
					t.Errorf("round %d rank %d: element %d = %d", r, x.Rank(), i, got)
					return
				}
			}
		}
	})
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestBcastSubCommunicator(t *testing.T) {
	// Broadcast among ranks 2..5 of an 8-rank cluster; others idle.
	const n = 25
	c := busCluster(t, 8, PortSpec{Port: 0, Kind: Bcast, Type: Int})
	sub := func(x *Ctx) (Comm, error) { return x.CommWorld().Sub(2, 4) }
	c.SPMD("subbcast", func(x *Ctx) {
		comm, err := sub(x)
		if err != nil {
			t.Error(err)
			return
		}
		if !comm.Contains(x.Rank()) {
			return // not a member
		}
		ch, err := x.OpenBcastChannel(n, Int, 0, 1, comm) // root = global rank 3
		if err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < n; i++ {
			got := ch.BcastInt(int32(7 * i))
			if got != int32(7*i) {
				t.Errorf("rank %d element %d = %d", x.Rank(), i, got)
				return
			}
		}
	})
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestReduceSum(t *testing.T) {
	// count exceeds the credit tile so flow control cycles several times.
	const n = 600
	const ranks = 4
	c := busCluster(t, ranks, PortSpec{Port: 0, Kind: Reduce, Type: Float, ReduceOp: Add, CreditElems: 128})
	c.SPMD("reduce", func(x *Ctx) {
		ch, err := x.OpenReduceChannel(n, Float, Add, 0, 0, x.CommWorld())
		if err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < n; i++ {
			contrib := float32(x.Rank()*n + i)
			got, ok := ch.ReduceFloat(contrib)
			if ok != (x.Rank() == 0) {
				t.Errorf("rank %d: ok=%v", x.Rank(), ok)
				return
			}
			if ok {
				// sum over r of (r*n + i) = n*sum(r) + ranks*i
				want := float32(n*(ranks*(ranks-1)/2) + ranks*i)
				if got != want {
					t.Errorf("element %d = %g, want %g", i, got, want)
					return
				}
			}
		}
	})
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestReduceMaxMinInt(t *testing.T) {
	for _, tc := range []struct {
		op   Op
		want func(i int, ranks int) int32
	}{
		{Max, func(i, ranks int) int32 { return int32((ranks-1)*10 - i) }},
		{Min, func(i, ranks int) int32 { return int32(0 - i) }},
	} {
		tc := tc
		t.Run(tc.op.String(), func(t *testing.T) {
			const n, ranks = 40, 3
			c := busCluster(t, ranks, PortSpec{Port: 0, Kind: Reduce, Type: Int, ReduceOp: tc.op})
			c.SPMD("reduce", func(x *Ctx) {
				ch, err := x.OpenReduceChannel(n, Int, tc.op, 0, 2, x.CommWorld())
				if err != nil {
					t.Error(err)
					return
				}
				for i := 0; i < n; i++ {
					contrib := int32(x.Rank()*10 - i)
					got, ok := ch.ReduceInt(contrib)
					if ok {
						if got != tc.want(i, ranks) {
							t.Errorf("element %d = %d, want %d", i, got, tc.want(i, ranks))
							return
						}
					}
				}
			})
			if _, err := c.Run(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestReduceOpMismatchRejected(t *testing.T) {
	c := busCluster(t, 2, PortSpec{Port: 0, Kind: Reduce, Type: Float, ReduceOp: Add})
	c.SPMD("check", func(x *Ctx) {
		if _, err := x.OpenReduceChannel(4, Float, Max, 0, 0, x.CommWorld()); err == nil {
			t.Error("mismatched reduce op accepted")
		}
		// The correct op still works.
		ch, err := x.OpenReduceChannel(4, Float, Add, 0, 0, x.CommWorld())
		if err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < 4; i++ {
			ch.ReduceFloat(1)
		}
	})
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestScatterCorrectness(t *testing.T) {
	const chunk, ranks = 21, 4
	c := busCluster(t, ranks, PortSpec{Port: 0, Kind: Scatter, Type: Int})
	c.SPMD("scatter", func(x *Ctx) {
		ch, err := x.OpenScatterChannel(chunk, Int, 0, 1, x.CommWorld())
		if err != nil {
			t.Error(err)
			return
		}
		if ch.Root() {
			for i := 0; i < chunk*ranks; i++ {
				ch.Push(uint64(i))
			}
		}
		for i := 0; i < chunk; i++ {
			want := uint64(x.Rank()*chunk + i)
			if got := ch.Pop(); got != want {
				t.Errorf("rank %d element %d = %d, want %d", x.Rank(), i, got, want)
				return
			}
		}
	})
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestGatherCorrectness(t *testing.T) {
	const chunk, ranks, root = 13, 4, 2
	c := busCluster(t, ranks, PortSpec{Port: 0, Kind: Gather, Type: Int})
	c.SPMD("gather", func(x *Ctx) {
		ch, err := x.OpenGatherChannel(chunk, Int, 0, root, x.CommWorld())
		if err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < chunk; i++ {
			ch.Push(uint64(x.Rank()*chunk + i))
		}
		if ch.Root() {
			for i := 0; i < chunk*ranks; i++ {
				if got := ch.Pop(); got != uint64(i) {
					t.Errorf("gathered element %d = %d", i, got)
					return
				}
			}
		}
	})
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestParallelCollectivesOnDistinctPorts(t *testing.T) {
	// "multiple collectives can perform their rendezvous and
	// communication concurrently" when they use separate ports.
	const n = 30
	c := busCluster(t, 4,
		PortSpec{Port: 0, Kind: Bcast, Type: Int},
		PortSpec{Port: 1, Kind: Reduce, Type: Int, ReduceOp: Add},
	)
	c.SPMD("both", func(x *Ctx) {
		bc, err := x.OpenBcastChannel(n, Int, 0, 0, x.CommWorld())
		if err != nil {
			t.Error(err)
			return
		}
		rc, err := x.OpenReduceChannel(n, Int, Add, 1, 3, x.CommWorld())
		if err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < n; i++ {
			got := bc.BcastInt(int32(i))
			if got != int32(i) {
				t.Errorf("rank %d bcast %d = %d", x.Rank(), i, got)
				return
			}
			sum, ok := rc.ReduceInt(int32(i))
			if ok && sum != int32(4*i) {
				t.Errorf("reduce %d = %d, want %d", i, sum, 4*i)
				return
			}
		}
	})
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestIntraFPGAStreams(t *testing.T) {
	c := busCluster(t, 2, PortSpec{Port: 0, Type: Int})
	s := c.NewStream("pipe", 8)
	const n = 50
	c.OnRank(0, "producer", func(x *Ctx) {
		for i := 0; i < n; i++ {
			x.PushStream(s, uint64(i*i))
		}
	})
	c.OnRank(0, "consumer", func(x *Ctx) {
		for i := 0; i < n; i++ {
			if got := x.PopStream(s); got != uint64(i*i) {
				t.Errorf("stream element %d = %d", i, got)
				return
			}
		}
	})
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestClusterValidation(t *testing.T) {
	topo, _ := topology.Bus(2)
	if _, err := NewCluster(Config{Program: ProgramSpec{Ports: []PortSpec{{Port: 0}}}}); err == nil {
		t.Error("missing topology accepted")
	}
	if _, err := NewCluster(Config{Topology: topo}); err == nil {
		t.Error("empty program accepted")
	}
	if _, err := NewCluster(Config{Topology: topo, Program: ProgramSpec{Ports: []PortSpec{{Port: 0}, {Port: 0}}}}); err == nil {
		t.Error("duplicate ports accepted")
	}
	c, err := NewCluster(Config{Topology: topo, Program: ProgramSpec{Ports: []PortSpec{{Port: 0}}}})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.OnRank(9, "x", func(*Ctx) {}); err == nil {
		t.Error("out-of-range rank accepted")
	}
	if _, err := c.Run(); err == nil {
		t.Error("run with no programs accepted")
	}
}

func TestCommSubValidation(t *testing.T) {
	w := Comm{base: 0, size: 8}
	if _, err := w.Sub(6, 4); err == nil {
		t.Error("oversized sub-communicator accepted")
	}
	if _, err := w.Sub(-1, 2); err == nil {
		t.Error("negative base accepted")
	}
	s, err := w.Sub(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if s.Base() != 2 || s.Size() != 4 || !s.Contains(5) || s.Contains(6) {
		t.Fatalf("sub-communicator wrong: %v", s)
	}
	if s.Global(1) != 3 {
		t.Fatal("rank translation wrong")
	}
}

// Property: arbitrary message lengths and buffer depths deliver intact,
// in-order messages for every datatype.
func TestP2PMessageIntegrityQuick(t *testing.T) {
	prop := func(countRaw uint16, dtRaw, bufRaw uint8) bool {
		count := int(countRaw%500) + 1
		dt := Datatype(dtRaw%5) + 1
		buf := int(bufRaw%100) + 1
		topo, _ := topology.Bus(3)
		c, err := NewCluster(Config{
			Topology: topo,
			Program:  ProgramSpec{Ports: []PortSpec{{Port: 0, Type: dt, BufferElems: buf}}},
		})
		if err != nil {
			return false
		}
		mask := uint64(1)<<(8*dt.Size()) - 1
		if dt.Size() == 8 {
			mask = ^uint64(0)
		}
		c.OnRank(0, "s", func(x *Ctx) {
			ch, _ := x.OpenSendChannel(count, dt, 2, 0, x.CommWorld())
			for i := 0; i < count; i++ {
				ch.Push(uint64(i) * 2654435761)
			}
		})
		okAll := true
		c.OnRank(2, "r", func(x *Ctx) {
			ch, _ := x.OpenRecvChannel(count, dt, 0, 0, x.CommWorld())
			for i := 0; i < count; i++ {
				if got := ch.Pop(); got != (uint64(i)*2654435761)&mask {
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
