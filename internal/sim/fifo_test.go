package sim

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/packet"
)

func slabName(i int) string { return fmt.Sprintf("f%d", i) }

// A FIFO nobody pushes costs its slot in the slab and nothing else: a
// slab of 64 deep FIFOs that are never written builds and runs with as
// many allocations as a slab of one.
func TestUnpushedFifoAllocatesNoRing(t *testing.T) {
	build := func(n int) float64 {
		return testing.AllocsPerRun(20, func() {
			e := NewEngine()
			fs := NewFifos[[8]uint64](e, n, func(int) int { return 1024 }, slabName)
			if err := e.Run(); err != nil {
				t.Fatal(err)
			}
			if fs[n-1].Cap() != 1024 {
				t.Fatalf("capacity %d, want 1024", fs[n-1].Cap())
			}
		})
	}
	if one, many := build(1), build(64); many != one {
		t.Errorf("64 unpushed FIFOs cost %v allocations, one costs %v", many, one)
	}
}

// A FIFO's ring grows to its occupancy: the first push allocates
// minRing slots, and each push that finds the ring full doubles it, up
// to the capacity, where pushes start failing. (The engine is a dense
// one because the event engine's dirty list, which is the engine's and
// not the FIFO's, also grows on a run's first push.)
func TestRingGrowsToOccupancy(t *testing.T) {
	var fs []Fifo[uint64]
	build := func(pushes int) (allocs float64, accepted int) {
		allocs = testing.AllocsPerRun(20, func() {
			e := NewEngine()
			e.SetScheduler(SchedDense)
			fs = NewFifos[uint64](e, 8, func(i int) int { return 7 + i }, slabName)
			accepted = 0
			for i := 0; i < pushes; i++ {
				if fs[3].TryPush(uint64(i)) {
					accepted++
				}
			}
		})
		return allocs, accepted
	}
	base, _ := build(0)
	// FIFO 3 holds 10: rings of 2, 4, 8, then 10, all with every write
	// still pending (no commit in between).
	for _, c := range []struct{ pushes, allocs, ring, accepted int }{
		{1, 1, 2, 1}, {2, 1, 2, 2}, {3, 2, 4, 3}, {4, 2, 4, 4}, {5, 3, 8, 5},
		{8, 3, 8, 8}, {9, 4, 10, 9}, {10, 4, 10, 10}, {13, 4, 10, 10},
	} {
		allocs, accepted := build(c.pushes)
		if d := allocs - base; d != float64(c.allocs) || len(fs[3].buf) != c.ring || accepted != c.accepted {
			t.Errorf("%d pushes: %v allocations, ring of %d, %d accepted; want %d, %d, %d",
				c.pushes, d, len(fs[3].buf), accepted, c.allocs, c.ring, c.accepted)
		}
	}
	for i := range fs {
		if i != 3 && fs[i].buf != nil || fs[i].Cap() != 7+i {
			t.Errorf("FIFO %d: ring of %d, capacity %d; want no ring and %d", i, len(fs[i].buf), fs[i].Cap(), 7+i)
		}
	}
	if f := &fs[3]; f.Len() != 0 || f.pendingIn != 10 || f.Stalls() != 1 || f.CanPush() {
		t.Errorf("full FIFO: %d committed, %d pending, %d stalls, CanPush %v; want 0, 10, 1, false",
			f.Len(), f.pendingIn, f.Stalls(), f.CanPush())
	}
	// Once the ring has grown to the occupancy a loop needs, the loop's
	// pushes, commits and pops allocate nothing.
	f := &fs[5]
	cycle := func() {
		for i := 0; i < 6; i++ {
			f.TryPush(uint64(i))
		}
		f.commit()
		for f.CanPop() {
			f.TryPop()
		}
	}
	cycle()
	if a := testing.AllocsPerRun(100, cycle); a != 0 || len(f.buf) != 8 {
		t.Errorf("steady state: %v allocations per cycle, ring of %d; want 0 and 8 for a peak occupancy of 6", a, len(f.buf))
	}
}

// A grow with the ring wrapped (head past 0) and writes pending unrolls
// committed and pending elements in order; so does a grow through a
// coordinator's barrier push.
func TestRingGrowUnrollsWrappedRing(t *testing.T) {
	e := NewEngine()
	e.SetScheduler(SchedDense)
	f := NewFifo[int](e, "f", 16)
	next, want := 0, 0
	push := func(n int) {
		for ; n > 0; n-- {
			if !f.TryPush(next) {
				t.Fatalf("push of %d failed", next)
			}
			next++
		}
	}
	pop := func(n int) {
		for ; n > 0; n-- {
			if v, ok := f.TryPop(); !ok || v != want {
				t.Fatalf("pop = %d/%v, want %d", v, ok, want)
			}
			want++
		}
	}
	push(4)
	f.commit()
	pop(3)
	push(3) // wraps into slots 0-2, pending
	if f.head != 3 || len(f.buf) != 4 || f.Len() != 1 || f.pendingIn != 3 {
		t.Fatalf("before the grow: head %d, ring %d, %d committed, %d pending; want 3, 4, 1, 3", f.head, len(f.buf), f.Len(), f.pendingIn)
	}
	push(1) // the ring is full: grow to 8
	if f.head != 0 || len(f.buf) != 8 || f.Len() != 1 || f.pendingIn != 4 {
		t.Fatalf("after the grow: head %d, ring %d, %d committed, %d pending; want 0, 8, 1, 4", f.head, len(f.buf), f.Len(), f.pendingIn)
	}
	pop(1)
	f.commit()
	pop(2) // head 3, two committed
	push(2)
	f.commit()
	pop(1)
	// Barrier pushes land committed; the sixth finds all 8 slots used,
	// from head 4 around to slot 3.
	if f.head != 4 || f.Len() != 3 {
		t.Fatalf("before the barrier pushes: head %d, %d committed; want 4, 3", f.head, f.Len())
	}
	for i := 0; i < 6; i++ {
		if !f.PushAtBarrier(next) {
			t.Fatalf("barrier push of %d failed", next)
		}
		next++
	}
	if len(f.buf) != 16 || f.head != 0 || f.Len() != 9 {
		t.Fatalf("after the barrier grow: ring %d, head %d, %d committed; want 16, 0, 9", len(f.buf), f.head, f.Len())
	}
	pop(9)
	if f.Pushes() != uint64(next) || f.MaxLen() != 9 {
		t.Errorf("pushes %d, high-water %d; want %d, 9", f.Pushes(), f.MaxLen(), next)
	}
}

// The FIFO header is paid once per FIFO a cluster builds, pushed or not:
// a packet FIFO fits in 112 bytes.
func TestFifoHeaderSize(t *testing.T) {
	if n := unsafe.Sizeof(Fifo[packet.Packet]{}); n > 112 {
		t.Errorf("Fifo[packet.Packet] is %d bytes, want at most 112", n)
	}
}

// A FIFO has one reader: attaching it twice is harmless, attaching a
// second kernel panics.
func TestWakesKernelOneReader(t *testing.T) {
	e := NewEngine()
	f := NewFifo[int](e, "f", 2)
	f.WakesKernel(3)
	f.WakesKernel(3)
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "FIFO f already wakes kernel 3") {
			t.Errorf("second reader: recovered %v, want a panic naming the FIFO and its reader", r)
		}
	}()
	f.WakesKernel(4)
}

// A coordinator's barrier push may be the first write a FIFO ever sees
// (the failover rescue into an idle network port).
func TestPushAtBarrierIntoFreshFifo(t *testing.T) {
	f := &NewFifos[int](NewEngine(), 2, func(int) int { return 2 }, slabName)[1]
	if !f.PushAtBarrier(7) || !f.PushAtBarrier(8) {
		t.Fatal("barrier push into a fresh FIFO failed")
	}
	if f.PushAtBarrier(9) {
		t.Fatal("barrier push beyond capacity succeeded")
	}
	for _, want := range []int{7, 8} {
		if v, ok := f.TryPop(); !ok || v != want {
			t.Fatalf("pop = %d/%v, want %d", v, ok, want)
		}
	}
	if f.Name() != "f1" || f.Pushes() != 2 || f.MaxLen() != 2 {
		t.Errorf("name %q, pushes %d, high-water %d; want f1, 2, 2", f.Name(), f.Pushes(), f.MaxLen())
	}
}

// The event/dense parity of the synthetic system holds with its FIFOs
// built as two slabs, and matches the run over one-by-one FIFOs.
func TestEventDenseParitySlabFifos(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		single, _ := newSynth(seed, SchedEvent, false).run(t)
		dense, _ := newSynth(seed, SchedDense, true).run(t)
		event, _ := newSynth(seed, SchedEvent, true).run(t)
		if !reflect.DeepEqual(dense, event) {
			t.Errorf("seed %d: event run over slab FIFOs diverges from the dense scan (cycles %d vs %d)", seed, event.Cycles, dense.Cycles)
		}
		if !reflect.DeepEqual(single, event) {
			t.Errorf("seed %d: slab FIFOs change the run (cycles %d vs %d)", seed, event.Cycles, single.Cycles)
		}
	}
}
