package smi

import (
	"fmt"
	"hash/fnv"
	"strings"
	"testing"
)

// TestOpenAllocatesOnlyItsHandle measures a steady-state open of each of
// the six channel kinds, inside a running kernel on rank 0 of a 2-rank
// bus: at most one allocation, of at most 16 bytes for a point-to-point
// channel and 32 for a collective. Each measured call opens one channel
// and completes it, so the port is free for the next call. A P2P open
// is measured against a long-lived channel of the other direction on
// the same port (a packet-mode port may target its own rank); the
// collectives run on a one-rank communicator, so no other kernel runs
// while the measurement does.
func TestOpenAllocatesOnlyItsHandle(t *testing.T) {
	const runs = 20
	// AllocsPerRun and bytesPerRun each make one warm-up call and runs
	// measured ones.
	const calls = 2 * (runs + 1)
	c := busCluster(t, 2,
		PortSpec{Port: 0, Type: Int},
		PortSpec{Port: 1, Kind: Bcast, Type: Int},
		PortSpec{Port: 2, Kind: Reduce, Type: Int, ReduceOp: Add},
		PortSpec{Port: 3, Kind: Scatter, Type: Int},
		PortSpec{Port: 4, Kind: Gather, Type: Int},
	)
	c.OnRank(0, "open", func(x *Ctx) {
		self, err := x.CommWorld().Sub(0, 1)
		if err != nil {
			t.Error(err)
			return
		}
		world := x.CommWorld()
		must := func(err error) {
			if err != nil {
				panic(err)
			}
		}
		check := func(name string, maxBytes uint64, f func()) {
			if n := testing.AllocsPerRun(runs, f); n > 1 {
				t.Errorf("%s: %v allocations per open, want at most 1", name, n)
			}
			if n := bytesPerRun(runs, f); n > maxBytes {
				t.Errorf("%s: %d bytes per open, want at most %d", name, n, maxBytes)
			}
		}

		rx, err := x.OpenRecvChannel(calls, Int, 0, 0, world)
		must(err)
		check("OpenSendChannel", 16, func() {
			ch, err := x.OpenSendChannel(1, Int, 0, 0, world)
			must(err)
			Push(ch, int32(1))
			Pop[int32](rx)
		})
		// The long-lived sender flushes a packet per epp elements, so each
		// call pushes one packet's worth and receives it.
		epp := Int.ElemsPerPacket()
		tx, err := x.OpenSendChannel(calls*epp, Int, 0, 0, world)
		must(err)
		check("OpenRecvChannel", 16, func() {
			for i := 0; i < epp; i++ {
				Push(tx, int32(i))
			}
			ch, err := x.OpenRecvChannel(epp, Int, 0, 0, world)
			must(err)
			for i := 0; i < epp; i++ {
				Pop[int32](ch)
			}
		})
		check("OpenBcastChannel", 32, func() {
			ch, err := x.OpenBcastChannel(1, Int, 1, 0, self)
			must(err)
			ch.Bcast(1)
		})
		check("OpenReduceChannel", 32, func() {
			ch, err := x.OpenReduceChannel(1, Int, Add, 2, 0, self)
			must(err)
			ch.Reduce(1)
		})
		check("OpenScatterChannel", 32, func() {
			ch, err := x.OpenScatterChannel(1, Int, 3, 0, self)
			must(err)
			ch.Push(1)
			ch.Pop()
		})
		check("OpenGatherChannel", 32, func() {
			ch, err := x.OpenGatherChannel(1, Int, 4, 0, self)
			must(err)
			ch.Push(1)
			ch.Pop()
		})
	})
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
}

// stalePanic runs f and returns the message it panicked with, or "" if
// it returned.
func stalePanic(f func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	f()
	return ""
}

// staleRun is one run of a stale-handle program: its cycles, an FNV-64a
// digest of every element received, and the message each stale use
// panicked with ("" for one that returned).
type staleRun struct {
	cycles int64
	digest uint64
	panics []string
}

// checkStale runs prog with and without its stale use and requires that
// the stale use panics as an operation beyond the message size, and
// that the reopened channel's data, digest and cycles are those of the
// run without it.
func checkStale(t *testing.T, prog func(stale bool) staleRun) {
	t.Helper()
	clean, dirty := prog(false), prog(true)
	if len(dirty.panics) == 0 || len(clean.panics) != 0 {
		t.Fatalf("%d stale uses with, %d without", len(dirty.panics), len(clean.panics))
	}
	for _, msg := range dirty.panics {
		if !strings.Contains(msg, "beyond message size") {
			t.Errorf("stale handle: panic %q, want one beyond the message size", msg)
		}
	}
	if dirty.cycles != clean.cycles || dirty.digest != clean.digest {
		t.Errorf("stale use changed the run: %d cycles, digest %x; want %d, %x",
			dirty.cycles, dirty.digest, clean.cycles, clean.digest)
	}
}

// stalePair runs a 1-element message, then a reopened 4-element one on
// the same port of a 2-rank bus; with stale set, the sender (onSend) or
// the receiver uses its first handle once its second channel is open.
func stalePair(t *testing.T, onSend bool) func(stale bool) staleRun {
	return func(stale bool) staleRun {
		var run staleRun
		h := fnv.New64a()
		c := busCluster(t, 2, PortSpec{Port: 0, Type: Int})
		c.OnRank(0, "tx", func(x *Ctx) {
			first, _ := x.OpenSendChannel(1, Int, 1, 0, x.CommWorld())
			Push(first, int32(7))
			second, _ := x.OpenSendChannel(4, Int, 1, 0, x.CommWorld())
			if stale && onSend {
				run.panics = append(run.panics, stalePanic(func() { Push(first, int32(99)) }))
			}
			for i := 0; i < 4; i++ {
				Push(second, int32(10+i))
			}
		})
		c.OnRank(1, "rx", func(x *Ctx) {
			first, _ := x.OpenRecvChannel(1, Int, 0, 0, x.CommWorld())
			vals := []int32{Pop[int32](first)}
			second, _ := x.OpenRecvChannel(4, Int, 0, 0, x.CommWorld())
			if stale && !onSend {
				run.panics = append(run.panics, stalePanic(func() { Pop[int32](first) }))
			}
			for i := 0; i < 4; i++ {
				vals = append(vals, Pop[int32](second))
			}
			if want := []int32{7, 10, 11, 12, 13}; fmt.Sprint(vals) != fmt.Sprint(want) {
				t.Errorf("received %v, want %v", vals, want)
			}
			fmt.Fprint(h, vals)
		})
		st, err := c.Run()
		if err != nil {
			t.Fatal(err)
		}
		run.cycles, run.digest = st.Cycles, h.Sum64()
		return run
	}
}

// TestStaleSendHandlePanics: a send handle used after its port was
// reopened panics and leaves the newer message untouched.
func TestStaleSendHandlePanics(t *testing.T) { checkStale(t, stalePair(t, true)) }

// TestStaleRecvHandlePanics: a receive handle used after its port was
// reopened panics and leaves the newer message untouched.
func TestStaleRecvHandlePanics(t *testing.T) { checkStale(t, stalePair(t, false)) }

// TestStaleBcastHandlePanics: a Bcast handle used after its port was
// reopened panics at the root and at a non-root member, and the
// reopened broadcast delivers its data unharmed.
func TestStaleBcastHandlePanics(t *testing.T) {
	checkStale(t, func(stale bool) staleRun {
		var run staleRun
		h := fnv.New64a()
		c := busCluster(t, 2, PortSpec{Port: 0, Kind: Bcast, Type: Int})
		for rank := 0; rank < 2; rank++ {
			c.OnRank(rank, "bcast", func(x *Ctx) {
				first, _ := x.OpenBcastChannel(1, Int, 0, 0, x.CommWorld())
				vals := []int32{first.BcastInt(7)}
				second, _ := x.OpenBcastChannel(4, Int, 0, 0, x.CommWorld())
				if stale {
					run.panics = append(run.panics, stalePanic(func() { first.BcastInt(99) }))
				}
				for i := 0; i < 4; i++ {
					vals = append(vals, second.BcastInt(int32(10+i)))
				}
				if want := []int32{7, 10, 11, 12, 13}; fmt.Sprint(vals) != fmt.Sprint(want) {
					t.Errorf("rank %d broadcast %v, want %v", rank, vals, want)
				}
				if rank == 1 {
					fmt.Fprint(h, vals)
				}
			})
		}
		st, err := c.Run()
		if err != nil {
			t.Fatal(err)
		}
		run.cycles, run.digest = st.Cycles, h.Sum64()
		return run
	})
}
