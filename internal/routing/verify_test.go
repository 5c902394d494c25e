package routing

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/topology"
)

// channel identifies a directed use of a cable in the oracle below.
type channel struct {
	dev, iface int
}

func (c channel) String() string { return fmt.Sprintf("%d:%d", c.dev, c.iface) }

// verifyOracle is the map-based channel dependency check that
// VerifyDeadlockFree replaced: it walks every source/destination path,
// keeps the graph as nested maps, and scans every channel for each
// successor list. It must reach the same verdict and name the same
// cycle. It does not terminate on a table with a forwarding loop.
func verifyOracle(r *Routes) error {
	adj := r.topo.Adjacent()
	deps := make(map[channel]map[channel]bool)
	addDep := func(a, b channel) {
		m := deps[a]
		if m == nil {
			m = make(map[channel]bool)
			deps[a] = m
		}
		m[b] = true
	}
	for src := 0; src < r.Devices; src++ {
		for dst := 0; dst < r.Devices; dst++ {
			if src == dst {
				continue
			}
			dev := src
			var prev *channel
			for dev != dst {
				i := r.Next[dev][dst]
				if i == Unreachable {
					break
				}
				cur := channel{dev, i}
				if prev != nil {
					addDep(*prev, cur)
				}
				prevv := cur
				prev = &prevv
				dev = adj[dev][i].Device
			}
		}
	}

	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make(map[channel]int)
	var chans []channel
	for d := 0; d < r.Devices; d++ {
		for i := 0; i < r.Ifaces; i++ {
			c := channel{d, i}
			if deps[c] != nil {
				chans = append(chans, c)
			}
		}
	}
	succ := func(c channel) []channel {
		var out []channel
		for d := 0; d < r.Devices; d++ {
			for i := 0; i < r.Ifaces; i++ {
				n := channel{d, i}
				if deps[c][n] {
					out = append(out, n)
				}
			}
		}
		return out
	}

	var stack []channel
	var dfs func(c channel) *CycleError
	dfs = func(c channel) *CycleError {
		color[c] = gray
		stack = append(stack, c)
		for _, n := range succ(c) {
			switch color[n] {
			case white:
				if err := dfs(n); err != nil {
					return err
				}
			case gray:
				var cyc []string
				start := 0
				for i, s := range stack {
					if s == n {
						start = i
						break
					}
				}
				for _, s := range stack[start:] {
					cyc = append(cyc, s.String())
				}
				cyc = append(cyc, n.String())
				return &CycleError{Cycle: cyc}
			}
		}
		stack = stack[:len(stack)-1]
		color[c] = black
		return nil
	}
	for _, c := range chans {
		if color[c] == white {
			stack = stack[:0]
			if err := dfs(c); err != nil {
				return err
			}
		}
	}
	return nil
}

// randomTopology draws a torus, bus, ring, star, hypercube or fully
// connected topology of a small random size.
func randomTopology(rng *rand.Rand) (*topology.Topology, error) {
	switch rng.Intn(6) {
	case 0:
		return topology.Torus2D(2+rng.Intn(5), 2+rng.Intn(5))
	case 1:
		return topology.Bus(2 + rng.Intn(11))
	case 2:
		return topology.Ring(3 + rng.Intn(10))
	case 3:
		return topology.Star(3 + rng.Intn(8))
	case 4:
		return topology.Hypercube(1 + rng.Intn(4))
	default:
		return topology.FullyConnected(3 + rng.Intn(5))
	}
}

// randomTreeRoutes gives each destination a random spanning in-tree, so
// no packet ever loops, while the union over destinations often closes
// channel dependency cycles. A cut share of the entries is Unreachable,
// as in a table degraded by a lost cable.
func randomTreeRoutes(rng *rand.Rand, t *topology.Topology, cut float64) *Routes {
	adj := t.Adjacent()
	r := &Routes{Devices: t.Devices, Ifaces: t.Ifaces, Next: make([][]int, t.Devices), topo: t}
	for d := range r.Next {
		r.Next[d] = make([]int, t.Devices)
		for dst := range r.Next[d] {
			r.Next[d][dst] = Unreachable
		}
	}
	for dst := 0; dst < t.Devices; dst++ {
		r.Next[dst][dst] = Local
		frontier := []int{dst}
		for len(frontier) > 0 {
			k := rng.Intn(len(frontier))
			u := frontier[k]
			frontier[k] = frontier[len(frontier)-1]
			frontier = frontier[:len(frontier)-1]
			for _, i := range rng.Perm(t.Ifaces) {
				v := adj[u][i]
				if v.Device < 0 || v.Device == dst || r.Next[v.Device][dst] != Unreachable {
					continue
				}
				r.Next[v.Device][dst] = v.Iface
				frontier = append(frontier, v.Device)
			}
		}
		for dev := range r.Next {
			if dev != dst && rng.Float64() < cut {
				r.Next[dev][dst] = Unreachable
			}
		}
	}
	return r
}

// TestVerifyMatchesOracle runs VerifyDeadlockFree and the map-based
// oracle over computed, degraded and random loop-free tables on random
// topologies, and requires the same verdict and the same named cycle.
func TestVerifyMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var cyclic, acyclic int
	check := func(name string, r *Routes) {
		t.Helper()
		got, want := VerifyDeadlockFree(r), verifyOracle(r)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: VerifyDeadlockFree = %v, oracle = %v", name, got, want)
		}
		if want != nil {
			cyclic++
		} else {
			acyclic++
		}
	}
	for n := 0; n < 300; n++ {
		topo, err := randomTopology(rng)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []Policy{ShortestPath, UpDown} {
			r, err := Compute(topo, p)
			if err != nil {
				t.Fatal(err)
			}
			check(fmt.Sprintf("%s/%v", topo.Name, p), r)
			if len(topo.Connections) > 1 {
				d := topo.Without(topo.Connections[rng.Intn(len(topo.Connections))])
				if dr, err := Compute(d, p); err == nil {
					check(fmt.Sprintf("%s-1/%v", topo.Name, p), dr)
				}
			}
		}
		check(topo.Name+"/random-tree", randomTreeRoutes(rng, topo, 0))
		check(topo.Name+"/random-tree-cut", randomTreeRoutes(rng, topo, 0.2))
	}
	t.Logf("%d cyclic and %d acyclic tables agree", cyclic, acyclic)
	if cyclic < 100 || acyclic < 100 {
		t.Fatalf("generated %d cyclic and %d acyclic tables, want at least 100 of each", cyclic, acyclic)
	}
}

// TestVerifyRejectsUncabledHop: a table entry naming an interface out
// of range or without a cable, as a hand-edited table read by ReadJSON
// may, is an error, not a panic or a check of some other channel.
func TestVerifyRejectsUncabledHop(t *testing.T) {
	topo := mustBus(t, 3)
	for _, iface := range []int{topology.IfaceNorth, topo.Ifaces, 7} {
		r, err := Compute(topo, ShortestPath)
		if err != nil {
			t.Fatal(err)
		}
		r.Next[1][0] = iface
		if err := VerifyDeadlockFree(r); err == nil || !strings.Contains(err.Error(), "no cable") {
			t.Errorf("interface %d: VerifyDeadlockFree = %v, want a no-cable error", iface, err)
		}
	}
}

// BenchmarkVerifyDeadlockFree checks the up*/down* tables of the 8x8
// torus.
func BenchmarkVerifyDeadlockFree(b *testing.B) {
	topo, err := topology.Torus2D(8, 8)
	if err != nil {
		b.Fatal(err)
	}
	r, err := Compute(topo, UpDown)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := VerifyDeadlockFree(r); err != nil {
			b.Fatal(err)
		}
	}
}
