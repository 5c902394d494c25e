package smi

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topology"
)

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic, got none", what)
		}
	}()
	f()
}

// TestPopDeadlineTimesOutAndRetries starves a receiver whose sender
// sleeps past the pop deadline: PopE must return a Timeout ChannelError,
// consume nothing, and deliver the full intact stream once retried.
func TestPopDeadlineTimesOutAndRetries(t *testing.T) {
	topo, err := topology.Bus(2)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCluster(Config{
		Topology: topo,
		Program:  ProgramSpec{Ports: []PortSpec{{Port: 0, Type: Int}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	const n = 100
	const patience = 400
	const senderDelay = 3000
	c.OnRank(0, "tx", func(x *Ctx) {
		x.Sleep(senderDelay) // long enough that early pops must time out
		ch, err := x.OpenSend(ChannelOpts{Count: n, Type: Int, Dst: 1, Port: 0})
		if err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < n; i++ {
			Push(ch, int32(i))
		}
	})
	var got []int32
	timeouts := 0
	c.OnRank(1, "rx", func(x *Ctx) {
		ch, err := x.OpenRecv(ChannelOpts{
			Count: n, Type: Int, Src: 0, Port: 0,
			Opts: []ChannelOption{WithDeadline(patience)},
		})
		if err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < n; i++ {
			for {
				v, err := PopE[int32](ch)
				if err == nil {
					got = append(got, v)
					break
				}
				if !IsTimeout(err) {
					t.Errorf("pop %d: want timeout, got %v", i, err)
					return
				}
				var ce *ChannelError
				if !errors.As(err, &ce) || ce.Op != "pop" || ce.Rank != 1 || ce.Peer != 0 {
					t.Errorf("pop %d: malformed error %+v", i, err)
					return
				}
				timeouts++
			}
		}
	})
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	checkStream(t, got, n)
	if timeouts == 0 {
		t.Fatalf("sender slept %d cycles but a %d-cycle pop deadline never fired", senderDelay, patience)
	}
}

// TestPushDeadlineTimesOut fills the transport toward an absent receiver
// until a deadlined PushE reports Timeout instead of blocking forever.
func TestPushDeadlineTimesOut(t *testing.T) {
	topo, err := topology.Bus(2)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCluster(Config{
		Topology: topo,
		Program:  ProgramSpec{Ports: []PortSpec{{Port: 0, Type: Int, BufferElems: 8}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	var timedOut bool
	c.OnRank(0, "tx", func(x *Ctx) {
		const n = 4000
		ch, err := x.OpenSend(ChannelOpts{
			Count: n, Type: Int, Dst: 1, Port: 0,
			Opts: []ChannelOption{WithDeadline(1000)},
		})
		if err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < n; i++ {
			if err := ch.PushE(int64AsBits(i)); err != nil {
				if !IsTimeout(err) {
					t.Errorf("push %d: want timeout, got %v", i, err)
				}
				timedOut = true
				return
			}
		}
	})
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if !timedOut {
		t.Fatal("pushed an unbounded stream into a sink-less network without timing out")
	}
}

func int64AsBits(i int) uint64 { return uint64(uint32(int32(i))) }

// TestPeerUnreachableFailsFast opens channels across a cut network: the
// open succeeds (it is zero-overhead bookkeeping) but the first
// operation returns PeerUnreachable instead of blocking.
func TestPeerUnreachableFailsFast(t *testing.T) {
	topo, err := topology.Bus(2)
	if err != nil {
		t.Fatal(err)
	}
	cut := topo.Without(topo.Connections[0]) // two devices, zero cables
	c, err := NewCluster(Config{
		Topology: cut,
		Program:  ProgramSpec{Ports: []PortSpec{{Port: 0, Type: Int}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	c.OnRank(0, "tx", func(x *Ctx) {
		ch, err := x.OpenSend(ChannelOpts{Count: 4, Type: Int, Dst: 1, Port: 0})
		if err != nil {
			t.Error(err)
			return
		}
		if err := ch.PushE(1); !IsPeerUnreachable(err) {
			t.Errorf("push across a cut: want PeerUnreachable, got %v", err)
		}
	})
	c.OnRank(1, "rx", func(x *Ctx) {
		ch, err := x.OpenRecv(ChannelOpts{Count: 4, Type: Int, Src: 0, Port: 0})
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := ch.PopE(); !IsPeerUnreachable(err) {
			t.Errorf("pop across a cut: want PeerUnreachable, got %v", err)
		}
	})
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestMisusePanicsVsErrors pins down the API contract split: conditions
// a correct program cannot hit panic (programming errors), conditions a
// correct program can observe at runtime return errors.
func TestMisusePanicsVsErrors(t *testing.T) {
	t.Run("double open is an error", func(t *testing.T) {
		c := twoRankCluster(t, PortSpec{Port: 0, Type: Int})
		c.OnRank(0, "t", func(x *Ctx) {
			if _, err := x.OpenSend(ChannelOpts{Count: 2, Type: Int, Dst: 1, Port: 0}); err != nil {
				t.Error(err)
				return
			}
			if _, err := x.OpenSend(ChannelOpts{Count: 2, Type: Int, Dst: 1, Port: 0}); err == nil {
				t.Error("second open of a busy port succeeded")
			}
		})
		drainRank1(c, 0)
		if _, err := c.Run(); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("push past count panics", func(t *testing.T) {
		c := twoRankCluster(t, PortSpec{Port: 0, Type: Int})
		c.OnRank(0, "t", func(x *Ctx) {
			ch, err := x.OpenSend(ChannelOpts{Count: 1, Type: Int, Dst: 1, Port: 0})
			if err != nil {
				t.Error(err)
				return
			}
			Push(ch, int32(7))
			mustPanic(t, "push past count", func() { Push(ch, int32(8)) })
		})
		drainRank1(c, 1)
		if _, err := c.Run(); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("pop past count panics", func(t *testing.T) {
		c := twoRankCluster(t, PortSpec{Port: 0, Type: Int})
		c.OnRank(0, "t", func(x *Ctx) {
			ch, err := x.OpenSend(ChannelOpts{Count: 1, Type: Int, Dst: 1, Port: 0})
			if err != nil {
				t.Error(err)
				return
			}
			Push(ch, int32(7))
		})
		c.OnRank(1, "r", func(x *Ctx) {
			ch, err := x.OpenRecv(ChannelOpts{Count: 1, Type: Int, Src: 0, Port: 0})
			if err != nil {
				t.Error(err)
				return
			}
			Pop[int32](ch)
			mustPanic(t, "pop past count", func() { Pop[int32](ch) })
		})
		if _, err := c.Run(); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("credited half duplex violation is an error", func(t *testing.T) {
		c := twoRankCluster(t, PortSpec{Port: 0, Type: Int, Mode: ModeCredited, BufferElems: 16})
		c.OnRank(0, "t", func(x *Ctx) {
			if _, err := x.OpenSend(ChannelOpts{Count: 64, Type: Int, Dst: 1, Port: 0}); err != nil {
				t.Error(err)
				return
			}
			// The reverse direction carries credits; claiming it is misuse.
			if _, err := x.OpenRecv(ChannelOpts{Count: 64, Type: Int, Src: 1, Port: 0}); err == nil {
				t.Error("recv open on the credit return path succeeded")
			}
		})
		if _, err := c.Run(); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("wrong source packet panics the run", func(t *testing.T) {
		topo, err := topology.Bus(3)
		if err != nil {
			t.Fatal(err)
		}
		c, err := NewCluster(Config{
			Topology: topo,
			Program:  ProgramSpec{Ports: []PortSpec{{Port: 0, Type: Int}}},
		})
		if err != nil {
			t.Fatal(err)
		}
		c.OnRank(0, "imposter", func(x *Ctx) {
			ch, err := x.OpenSend(ChannelOpts{Count: 1, Type: Int, Dst: 1, Port: 0})
			if err != nil {
				t.Error(err)
				return
			}
			Push(ch, int32(1))
		})
		c.OnRank(1, "victim", func(x *Ctx) {
			// Expects traffic from rank 2; rank 0's packet is a program bug.
			ch, err := x.OpenRecv(ChannelOpts{Count: 1, Type: Int, Src: 2, Port: 0})
			if err != nil {
				t.Error(err)
				return
			}
			Pop[int32](ch)
		})
		_, err = c.Run()
		if err == nil || !strings.Contains(err.Error(), "expected") {
			t.Fatalf("mismatched source must fail the run with a diagnostic, got %v", err)
		}
	})
}

func twoRankCluster(t *testing.T, ports ...PortSpec) *Cluster {
	t.Helper()
	topo, err := topology.Bus(2)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCluster(Config{Topology: topo, Program: ProgramSpec{Ports: ports}})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// drainRank1 registers a rank-1 program popping n ints from rank 0 (or
// an empty program for n == 0) so two-rank misuse tests terminate.
func drainRank1(c *Cluster, n int) {
	c.OnRank(1, "drain", func(x *Ctx) {
		if n == 0 {
			return
		}
		ch, err := x.OpenRecv(ChannelOpts{Count: n, Type: Int, Src: 0, Port: 0})
		if err != nil {
			return
		}
		for i := 0; i < n; i++ {
			Pop[int32](ch)
		}
	})
}

// TestClusterFailedUnblocksChannelOps is the fault-surface acceptance
// test: killing the only cable of a two-rank bus makes the repair
// impossible (the surviving topology is disconnected), which must wake
// both blocked channel operations with a ClusterFailed ChannelError —
// promptly, well before their deadlines — rather than quiescing the
// cluster into a deadlock report. The rank programs recover, so the run
// finishes cleanly with the failure recorded in Stats.
func TestClusterFailedUnblocksChannelOps(t *testing.T) {
	topo, err := topology.Bus(2)
	if err != nil {
		t.Fatal(err)
	}
	conn := topo.Connections[0]
	const killAt = 2000
	const patience = 1_000_000 // generous: failure must beat this, not ride it
	c, err := NewCluster(Config{
		Topology: topo,
		Program:  ProgramSpec{Ports: []PortSpec{{Port: 0, Type: Int}}},
		Faults: &fault.Spec{Events: []fault.Event{
			{Link: fmt.Sprintf("%s->%s", conn.A, conn.B), Kind: fault.Kill, At: killAt},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	const n = 100000 // far more traffic than fits before the kill
	var sendErr, recvErr error
	var sendErrAt, recvErrAt int64
	c.OnRank(0, "tx", func(x *Ctx) {
		ch, err := x.OpenSend(ChannelOpts{
			Count: n, Type: Int, Dst: 1, Port: 0,
			Opts: []ChannelOption{WithDeadline(patience)},
		})
		if err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < n; i++ {
			if err := ch.PushE(uint64(uint32(i))); err != nil {
				sendErr, sendErrAt = err, x.Now()
				return // recover: abandon the transfer
			}
		}
	})
	c.OnRank(1, "rx", func(x *Ctx) {
		ch, err := x.OpenRecv(ChannelOpts{
			Count: n, Type: Int, Src: 0, Port: 0,
			Opts: []ChannelOption{WithDeadline(patience)},
		})
		if err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < n; i++ {
			if _, err := ch.PopE(); err != nil {
				recvErr, recvErrAt = err, x.Now()
				return
			}
		}
	})
	st, err := c.Run()
	if err != nil {
		t.Fatalf("recovering rank programs must finish cleanly, got %v", err)
	}
	if !st.ClusterFailed {
		t.Fatalf("stats must record the cluster failure: %+v", st)
	}
	for side, e := range map[string]error{"send": sendErr, "recv": recvErr} {
		if !IsClusterFailed(e) {
			t.Fatalf("%s: want ClusterFailed, got %v", side, e)
		}
	}
	// The abort wake is immediate; it must not wait out the deadline.
	for side, at := range map[string]int64{"send": sendErrAt, "recv": recvErrAt} {
		if at < killAt || at > killAt+patience/2 {
			t.Fatalf("%s: failure observed at cycle %d, kill was at %d (deadline %d)", side, at, killAt, patience)
		}
	}
	if c.FailureCause() == nil || !strings.Contains(c.FailureCause().Error(), "disconnected") {
		t.Fatalf("FailureCause = %v", c.FailureCause())
	}
}

// TestClusterFailedSurfacesCauseNotDeadlock runs the same impossible
// repair without any recovery code or deadlines: the blocking Push/Pop
// wrappers panic with the ChannelError, and Run must surface the repair
// failure as the cause instead of a deadlock diagnosis.
func TestClusterFailedSurfacesCauseNotDeadlock(t *testing.T) {
	topo, err := topology.Bus(2)
	if err != nil {
		t.Fatal(err)
	}
	conn := topo.Connections[0]
	c, err := NewCluster(Config{
		Topology: topo,
		Program:  ProgramSpec{Ports: []PortSpec{{Port: 0, Type: Int}}},
		Faults: &fault.Spec{Events: []fault.Event{
			{Link: fmt.Sprintf("%s->%s", conn.A, conn.B), Kind: fault.Kill, At: 2000},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	const n = 100000
	c.OnRank(0, "tx", func(x *Ctx) {
		ch, err := x.OpenSend(ChannelOpts{Count: n, Type: Int, Dst: 1, Port: 0})
		if err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < n; i++ {
			Push(ch, int32(i))
		}
	})
	c.OnRank(1, "rx", func(x *Ctx) {
		ch, err := x.OpenRecv(ChannelOpts{Count: n, Type: Int, Src: 0, Port: 0})
		if err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < n; i++ {
			Pop[int32](ch)
		}
	})
	_, err = c.Run()
	if err == nil {
		t.Fatal("an unrepairable cluster with unrecovered ranks must fail the run")
	}
	var dl *sim.DeadlockError
	if errors.As(err, &dl) {
		t.Fatalf("cluster failure misdiagnosed as deadlock: %v", err)
	}
	if !strings.Contains(err.Error(), "disconnected") {
		t.Fatalf("run error must carry the repair failure, got %v", err)
	}
}

// TestArmedDeadlineTimingParity is the determinism acceptance test: a
// fault-free run whose channels carry (never-firing) deadlines must be
// cycle-identical to the same run without them, under both the event
// and the dense scheduler — armed deadlines are scheduled wakes, not
// per-cycle polls, and a stale wake must not perturb fast-forwarding.
func TestArmedDeadlineTimingParity(t *testing.T) {
	topo, err := topology.Torus2D(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	const n = 4000
	run := func(kind sim.SchedulerKind, patience int64) (Stats, []int32) {
		t.Helper()
		c, err := NewCluster(Config{
			Topology:      topo,
			Program:       ProgramSpec{Ports: []PortSpec{{Port: 0, Type: Int}}},
			RoutingPolicy: routing.UpDown,
			Scheduler:     kind,
		})
		if err != nil {
			t.Fatal(err)
		}
		var opts []ChannelOption
		if patience > 0 {
			opts = append(opts, WithDeadline(patience))
		}
		c.OnRank(0, "tx", func(x *Ctx) {
			ch, err := x.OpenSend(ChannelOpts{Count: n, Type: Int, Dst: 3, Port: 0, Opts: opts})
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < n; i++ {
				Push(ch, int32(i))
			}
		})
		var got []int32
		c.OnRank(3, "rx", func(x *Ctx) {
			ch, err := x.OpenRecv(ChannelOpts{Count: n, Type: Int, Src: 0, Port: 0, Opts: opts})
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < n; i++ {
				got = append(got, Pop[int32](ch))
			}
		})
		st, err := c.Run()
		if err != nil {
			t.Fatal(err)
		}
		return st, got
	}

	const patience = 5_000_000 // armed on every op, never fires
	base, got := run(sim.SchedEvent, 0)
	checkStream(t, got, n)
	for name, st := range map[string]Stats{
		"event+deadline": first(run(sim.SchedEvent, patience)),
		"dense":          first(run(sim.SchedDense, 0)),
		"dense+deadline": first(run(sim.SchedDense, patience)),
	} {
		if st.Cycles != base.Cycles {
			t.Errorf("%s: %d cycles, want %d — armed deadlines perturbed timing", name, st.Cycles, base.Cycles)
		}
	}
	// Stronger than end-to-end cycles: the event scheduler must also do
	// the same amount of work (stale deadline wakes never execute).
	evD, _ := run(sim.SchedEvent, patience)
	if evD.Sched.CyclesExecuted != base.Sched.CyclesExecuted {
		t.Errorf("armed deadlines changed executed cycles: %d vs %d",
			evD.Sched.CyclesExecuted, base.Sched.CyclesExecuted)
	}
}

func first(st Stats, _ []int32) Stats { return st }
