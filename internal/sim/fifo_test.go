package sim

import (
	"fmt"
	"reflect"
	"testing"
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

// The first push into a FIFO allocates its ring, at full capacity, and
// nothing else; later pushes allocate nothing. (The engine is a dense one
// because the event engine's dirty list, which is the engine's and not
// the FIFO's, also grows on a run's first push.)
func TestFirstPushAllocatesOneRing(t *testing.T) {
	var fs []Fifo[uint64]
	build := func(pushes int) float64 {
		return testing.AllocsPerRun(20, func() {
			e := NewEngine()
			e.SetScheduler(SchedDense)
			fs = NewFifos[uint64](e, 8, func(i int) int { return 2 + i }, slabName)
			for i := 0; i < pushes; i++ {
				fs[3].TryPush(uint64(i))
			}
		})
	}
	base := build(0)
	if d := build(1) - base; d != 1 {
		t.Errorf("first push made %v allocations, want 1", d)
	}
	if d := build(5) - base; d != 1 {
		t.Errorf("five pushes made %v allocations, want 1", d)
	}
	for i := range fs {
		want := 0
		if i == 3 {
			want = fs[i].Cap()
		}
		if len(fs[i].buf) != want || fs[i].Cap() != 2+i {
			t.Errorf("FIFO %d: ring of %d, capacity %d; want %d and %d", i, len(fs[i].buf), fs[i].Cap(), want, 2+i)
		}
	}
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
