package smi

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/packet"
)

func TestBinomialTreeStructure(t *testing.T) {
	// Classic binomial tree over 8 nodes rooted at 0:
	// 0 -> {1,2,4}, 2 -> {3}, 4 -> {5,6}, 6 -> {7}.
	cases := []struct {
		self     int
		parent   int
		children []int
	}{
		{0, -1, []int{1, 2, 4}},
		{1, 0, nil},
		{2, 0, []int{3}},
		{3, 2, nil},
		{4, 0, []int{5, 6}},
		{5, 4, nil},
		{6, 4, []int{7}},
		{7, 6, nil},
	}
	for _, c := range cases {
		p, ch := binomial(0, 8, 0, c.self, nil)
		if p != c.parent {
			t.Errorf("node %d parent = %d, want %d", c.self, p, c.parent)
		}
		if fmt.Sprint(ch) != fmt.Sprint(c.children) {
			t.Errorf("node %d children = %v, want %v", c.self, ch, c.children)
		}
	}
}

// Property: for any size and root, the binomial tree is a spanning tree:
// every non-root node has exactly one parent, parents agree with child
// lists, and walking up always terminates at the root.
func TestBinomialTreeSpanningQuick(t *testing.T) {
	prop := func(sizeRaw, rootRaw uint8) bool {
		size := int(sizeRaw%16) + 1
		root := int(rootRaw) % size
		childCount := 0
		for v := 0; v < size; v++ {
			p, children := binomial(0, size, root, v, nil)
			childCount += len(children)
			for _, c := range children {
				cp, _ := binomial(0, size, root, c, nil)
				if cp != v {
					return false
				}
			}
			if v == root {
				if p != -1 {
					return false
				}
				continue
			}
			// Walk up to the root in at most depth steps.
			cur, steps := v, 0
			for cur != root {
				cur, _ = binomial(0, size, root, cur, nil)
				if cur < 0 || steps > treeDepth(size)+1 {
					return false
				}
				steps++
			}
		}
		return childCount == size-1
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestTreeDepth(t *testing.T) {
	for size, want := range map[int]int{1: 0, 2: 1, 3: 2, 4: 2, 8: 3, 9: 4, 16: 4} {
		if got := treeDepth(size); got != want {
			t.Errorf("treeDepth(%d) = %d, want %d", size, got, want)
		}
	}
}

// TestCollectiveShapes runs each collective on both shapes of the one
// support kernel (linear is the star) for communicator sizes 2-8, the
// first or last member as root, and the world or an offset
// sub-communicator, three back-to-back rounds per row, against reference
// values; a clean Run also means no support kernel saw a protocol
// violation. Rounds 0 and 1 keep the row's root, so a member may stream
// its next contribution before the root has finished the last; round 2
// moves the root to the next member, reshaping a tree under in-flight
// traffic. Scatter and Gather exist only linear.
func TestCollectiveShapes(t *testing.T) {
	kinds := []struct {
		name string
		port PortSpec
	}{
		{"bcast", PortSpec{Kind: Bcast, Type: Float}},
		{"reduce-add", PortSpec{Kind: Reduce, Type: Float, ReduceOp: Add}},
		{"reduce-max", PortSpec{Kind: Reduce, Type: Int, ReduceOp: Max}},
		{"reduce-min", PortSpec{Kind: Reduce, Type: Int, ReduceOp: Min}},
		{"scatter", PortSpec{Kind: Scatter, Type: Int}},
		{"gather", PortSpec{Kind: Gather, Type: Int}},
	}
	for _, k := range kinds {
		t.Run(k.name, func(t *testing.T) {
			for _, tree := range []bool{false, true} {
				if tree && (k.port.Kind == Scatter || k.port.Kind == Gather) {
					continue
				}
				spec := k.port
				spec.Tree = tree
				spec.CreditElems = 28 // two or three tiles per round
				t.Run(map[bool]string{false: "linear", true: "tree"}[tree], func(t *testing.T) {
					for _, size := range []int{2, 3, 5, 8} {
						for _, root := range []int{0, size - 1} {
							for _, base := range []int{0, 3} {
								name := fmt.Sprintf("size=%d/root=%s/%s", size,
									map[bool]string{true: "first", false: "last"}[root == 0],
									map[bool]string{true: "world", false: "sub"}[base == 0])
								t.Run(name, func(t *testing.T) { runShapeRow(t, spec, base, size, root) })
							}
						}
					}
				})
			}
		})
	}
}

// runShapeRow runs three rounds of spec's collective on the size members
// from global rank base of a bus, rooted at member root.
func runShapeRow(t *testing.T, spec PortSpec, base, size, root int) {
	c := busCluster(t, base+size, spec)
	c.SPMD("shape", func(x *Ctx) {
		comm, err := x.CommWorld().Sub(base, size)
		if err != nil {
			t.Error(err)
			return
		}
		if !comm.Contains(x.Rank()) {
			return
		}
		for r := 0; r < 3; r++ {
			if err := shapeRound(x, spec, comm, (root+r/2)%size, 40+10*r, r); err != nil {
				t.Errorf("round %d rank %d: %v", r, x.Rank(), err)
				return
			}
		}
	})
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
}

// shapeRound runs one round of n elements at rank x and checks what the
// collective returns. Every value encodes its round, source rank and
// element, so a value from the wrong round or member shows.
func shapeRound(x *Ctx, spec PortSpec, comm Comm, root, n, r int) error {
	me, first, last := x.Rank(), comm.Global(0), comm.Global(comm.Size()-1)
	elem := func(g, i int) uint64 { return packet.IntBits(int32(100000*r + 1000*g + i)) }
	check := func(what string, i int, got, want uint64) error {
		if got != want {
			return fmt.Errorf("%s element %d = %#x, want %#x", what, i, got, want)
		}
		return nil
	}
	switch spec.Kind {
	case Bcast:
		ch, err := x.OpenBcastChannel(n, spec.Type, 0, root, comm)
		if err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			want := packet.FloatBits(float32(1000*r + i))
			if err := check("bcast", i, ch.Bcast(want), want); err != nil {
				return err
			}
		}
	case Reduce:
		ch, err := x.OpenReduceChannel(n, spec.Type, spec.ReduceOp, 0, root, comm)
		if err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			var mine, want uint64
			switch spec.ReduceOp {
			case Add: // small integers keep the float sum exact in any order
				mine = packet.FloatBits(float32(me + i + 100*r))
				want = packet.FloatBits(float32((first+last)*comm.Size()/2 + comm.Size()*(i+100*r)))
			case Max:
				mine, want = packet.IntBits(int32(10*me-i+1000*r)), packet.IntBits(int32(10*last-i+1000*r))
			case Min:
				mine, want = packet.IntBits(int32(10*me-i+1000*r)), packet.IntBits(int32(10*first-i+1000*r))
			}
			got, ok := ch.Reduce(mine)
			if ok != ch.Root() {
				return fmt.Errorf("reduce element %d: ok=%v at root=%v", i, ok, ch.Root())
			}
			if ok {
				if err := check("reduce", i, got, want); err != nil {
					return err
				}
			}
		}
	case Scatter:
		ch, err := x.OpenScatterChannel(n, spec.Type, 0, root, comm)
		if err != nil {
			return err
		}
		if ch.Root() {
			for g := first; g <= last; g++ {
				for i := 0; i < n; i++ {
					ch.Push(elem(g, i))
				}
			}
		}
		for i := 0; i < n; i++ {
			if err := check("scatter", i, ch.Pop(), elem(me, i)); err != nil {
				return err
			}
		}
	case Gather:
		ch, err := x.OpenGatherChannel(n, spec.Type, 0, root, comm)
		if err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			ch.Push(elem(me, i))
		}
		if ch.Root() {
			for g := first; g <= last; g++ {
				for i := 0; i < n; i++ {
					if err := check(fmt.Sprintf("gather from %d", g), i, ch.Pop(), elem(g, i)); err != nil {
						return err
					}
				}
			}
		}
	}
	return nil
}

func TestTreeReduceCorrectness(t *testing.T) {
	for _, ranks := range []int{2, 5, 8} {
		for _, root := range []int{0, 2 % ranks} {
			ranks, root := ranks, root
			t.Run(fmt.Sprintf("ranks=%d root=%d", ranks, root), func(t *testing.T) {
				const n = 500 // several credit tiles with C=128
				c := busCluster(t, ranks, PortSpec{
					Port: 0, Kind: Reduce, Type: Float, ReduceOp: Add, Tree: true, CreditElems: 128,
				})
				c.SPMD("treduce", func(x *Ctx) {
					ch, err := x.OpenReduceChannel(n, Float, Add, 0, root, x.CommWorld())
					if err != nil {
						t.Error(err)
						return
					}
					for i := 0; i < n; i++ {
						got, ok := ch.ReduceFloat(float32(x.Rank()*n + i))
						if ok != (x.Rank() == root) {
							t.Errorf("rank %d ok=%v", x.Rank(), ok)
							return
						}
						if ok {
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
			})
		}
	}
}

func TestTreeReduceMaxMin(t *testing.T) {
	const n, ranks = 50, 6
	for _, tc := range []struct {
		op   Op
		want func(i int) int32
	}{
		{Max, func(i int) int32 { return int32((ranks-1)*10 - i) }},
		{Min, func(i int) int32 { return int32(-i) }},
	} {
		tc := tc
		t.Run(tc.op.String(), func(t *testing.T) {
			c := busCluster(t, ranks, PortSpec{Port: 0, Kind: Reduce, Type: Int, ReduceOp: tc.op, Tree: true})
			c.SPMD("treduce", func(x *Ctx) {
				ch, err := x.OpenReduceChannel(n, Int, tc.op, 0, 1, x.CommWorld())
				if err != nil {
					t.Error(err)
					return
				}
				for i := 0; i < n; i++ {
					got, ok := ch.ReduceInt(int32(x.Rank()*10 - i))
					if ok && got != tc.want(i) {
						t.Errorf("element %d = %d, want %d", i, got, tc.want(i))
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

// TestTreeCollectivesRepeatedRounds interleaves a tree Bcast and a tree
// Reduce on two ports of one program, moving the root every round.
func TestTreeCollectivesRepeatedRounds(t *testing.T) {
	const n, rounds = 40, 3
	c := busCluster(t, 4,
		PortSpec{Port: 0, Kind: Bcast, Type: Int, Tree: true},
		PortSpec{Port: 1, Kind: Reduce, Type: Int, ReduceOp: Add, Tree: true},
	)
	c.SPMD("rounds", func(x *Ctx) {
		for r := 0; r < rounds; r++ {
			root := r % x.Size()
			bc, err := x.OpenBcastChannel(n, Int, 0, root, x.CommWorld())
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < n; i++ {
				if got := bc.BcastInt(int32(root + i)); got != int32(root+i) {
					t.Errorf("round %d rank %d element %d = %d", r, x.Rank(), i, got)
					return
				}
			}
			rc, err := x.OpenReduceChannel(n, Int, Add, 1, root, x.CommWorld())
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < n; i++ {
				got, ok := rc.ReduceInt(int32(i))
				if ok && got != int32(4*i) {
					t.Errorf("round %d reduce %d = %d", r, i, got)
					return
				}
			}
		}
	})
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestTreeOnlyForBcastReduce(t *testing.T) {
	spec := ProgramSpec{Ports: []PortSpec{{Port: 0, Kind: Gather, Type: Int, Tree: true}}}
	if err := spec.Validate(); err == nil {
		t.Fatal("tree gather should be rejected")
	}
}

// TestTreeBcastFasterAtScale checks the point of the extension: with 8
// ranks the root's fan-out drops from 7 sequential copies to 3, so a
// large broadcast completes faster.
func TestTreeBcastFasterAtScale(t *testing.T) {
	run := func(tree bool) int64 {
		const n, ranks = 8192, 8
		c := busCluster(t, ranks, PortSpec{Port: 0, Kind: Bcast, Type: Float, Tree: tree, BufferElems: 512})
		c.SPMD("bcast", func(x *Ctx) {
			ch, err := x.OpenBcastChannel(n, Float, 0, 0, x.CommWorld())
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < n; i++ {
				ch.BcastFloat(float32(i))
			}
		})
		st, err := c.Run()
		if err != nil {
			t.Fatal(err)
		}
		return st.Cycles
	}
	linear := run(false)
	tree := run(true)
	if float64(tree) > 0.75*float64(linear) {
		t.Fatalf("tree bcast (%d cycles) should clearly beat linear (%d cycles)", tree, linear)
	}
}
