// Package routing computes static routing tables for an FPGA cluster.
//
// This is the reproduction's route generator (paper §4.3 and Fig 8): it
// consumes the interconnect topology and produces, for every device, the
// exit interface to use for every destination rank. Tables are computed
// offline and "uploaded" to the transport layer at cluster start; the
// program itself never needs recompiling when the topology changes.
//
// Two policies are provided:
//
//   - ShortestPath: breadth-first shortest paths with deterministic
//     tie-breaking. Minimal hop counts, but on cyclic topologies (tori,
//     rings) the resulting channel dependency graph may contain cycles,
//     i.e. the routes are not provably deadlock-free.
//   - UpDown: up*/down* routing over a breadth-first spanning tree. Paths
//     may be longer, but the channel dependency graph is provably
//     acyclic, following the deadlock-free oblivious routing approach the
//     paper adopts from Domke et al.
//
// VerifyDeadlockFree checks any route set by building the channel
// dependency graph and searching for cycles.
package routing

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"repro/internal/topology"
)

// Policy selects a route computation algorithm.
type Policy uint8

const (
	// ShortestPath is plain BFS shortest-path routing.
	ShortestPath Policy = iota
	// UpDown is deadlock-free up*/down* routing.
	UpDown
)

func (p Policy) String() string {
	switch p {
	case ShortestPath:
		return "shortest-path"
	case UpDown:
		return "up*/down*"
	default:
		return fmt.Sprintf("Policy(%d)", uint8(p))
	}
}

// Local marks "destination is this device" in a routing table.
const Local = -1

// Unreachable marks a destination with no route.
const Unreachable = -2

// Routes holds per-device forwarding tables: Next[dev][dst] is the local
// interface on which device dev forwards packets destined to rank dst
// (or Local / Unreachable).
type Routes struct {
	Policy  Policy  `json:"policy"`
	Devices int     `json:"devices"`
	Ifaces  int     `json:"ifaces"`
	Next    [][]int `json:"next"`

	topo *topology.Topology
}

// Compute derives routing tables for the topology under the policy.
func Compute(t *topology.Topology, p Policy) (*Routes, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	r := &Routes{
		Policy:  p,
		Devices: t.Devices,
		Ifaces:  t.Ifaces,
		Next:    make([][]int, t.Devices),
		topo:    t,
	}
	for d := range r.Next {
		r.Next[d] = make([]int, t.Devices)
	}
	switch p {
	case ShortestPath:
		r.computeShortest()
	case UpDown:
		r.computeUpDown()
	default:
		return nil, fmt.Errorf("routing: unknown policy %v", p)
	}
	return r, nil
}

// computeShortest fills tables with BFS shortest paths. Ties are broken
// by the smallest local interface index, which makes the result
// deterministic and independent of map iteration order.
func (r *Routes) computeShortest() {
	adj := r.topo.Adjacent()
	for dst := 0; dst < r.Devices; dst++ {
		dist := bfsDistances(adj, dst)
		for dev := 0; dev < r.Devices; dev++ {
			switch {
			case dev == dst:
				r.Next[dev][dst] = Local
			case dist[dev] < 0:
				r.Next[dev][dst] = Unreachable
			default:
				r.Next[dev][dst] = Unreachable
				for i, e := range adj[dev] {
					if e.Device >= 0 && dist[e.Device] == dist[dev]-1 {
						r.Next[dev][dst] = i
						break
					}
				}
			}
		}
	}
}

// bfsDistances returns hop counts from every device to dst (-1 if
// unreachable).
func bfsDistances(adj [][]topology.Endpoint, dst int) []int {
	dist := make([]int, len(adj))
	for i := range dist {
		dist[i] = -1
	}
	dist[dst] = 0
	queue := []int{dst}
	for len(queue) > 0 {
		d := queue[0]
		queue = queue[1:]
		for _, e := range adj[d] {
			if e.Device >= 0 && dist[e.Device] < 0 {
				dist[e.Device] = dist[d] + 1
				queue = append(queue, e.Device)
			}
		}
	}
	return dist
}

// computeUpDown fills tables with up*/down* routes. Devices are ordered
// by (BFS level from device 0, device id); a directed link is "up" when
// it moves strictly earlier in that order. A legal path crosses zero or
// more up links followed by zero or more down links, which provably
// breaks all channel-dependency cycles.
func (r *Routes) computeUpDown() {
	adj := r.topo.Adjacent()
	level := bfsDistances(adj, 0)
	// less reports whether device a is "higher" (closer to the root).
	less := func(a, b int) bool {
		if level[a] != level[b] {
			return level[a] < level[b]
		}
		return a < b
	}

	// For every destination, BFS backwards over legal paths. State is
	// (device, phase) where phase 0 = still allowed to go up, phase 1 =
	// already went down. Searching from the destination along reversed
	// edges: a forward path up...down reversed becomes up...down again
	// (reversing flips each edge's direction and the sequence order), so
	// the same state machine applies.
	for dst := 0; dst < r.Devices; dst++ {
		type state struct{ dev, phase int }
		dist0 := make([]int, r.Devices) // phase 0: reverse path so far is all "down" forward
		dist1 := make([]int, r.Devices)
		for i := range dist0 {
			dist0[i], dist1[i] = -1, -1
		}
		// nextHop[dev][phase] = iface to take at dev (forward direction).
		next := make([][2]int, r.Devices)
		for i := range next {
			next[i] = [2]int{Unreachable, Unreachable}
		}
		dist0[dst] = 0
		dist1[dst] = 0
		queue := []state{{dst, 0}}
		for len(queue) > 0 {
			s := queue[0]
			queue = queue[1:]
			var d int
			if s.phase == 0 {
				d = dist0[s.dev]
			} else {
				d = dist1[s.dev]
			}
			for _, e := range adj[s.dev] {
				if e.Device < 0 {
					continue
				}
				// Forward edge: e.Device --(iface e.Iface)--> s.dev.
				up := less(s.dev, e.Device) // forward edge goes up
				// Reverse BFS: from dst outward. Phase 0 means every
				// forward edge appended so far is a "down" edge (the
				// tail of the path); once we add an "up" forward edge we
				// are in the "up prefix" (phase 1) and may only add more
				// up edges.
				var nphase int
				if s.phase == 0 {
					if up {
						nphase = 1
					} else {
						nphase = 0
					}
				} else {
					if !up {
						continue // down edge before the up prefix ends: illegal
					}
					nphase = 1
				}
				var dp *int
				if nphase == 0 {
					dp = &dist0[e.Device]
				} else {
					dp = &dist1[e.Device]
				}
				if *dp >= 0 {
					continue
				}
				*dp = d + 1
				next[e.Device][nphase] = e.Iface
				queue = append(queue, state{e.Device, nphase})
			}
		}
		for dev := 0; dev < r.Devices; dev++ {
			if dev == dst {
				r.Next[dev][dst] = Local
				continue
			}
			// Forwarding is memoryless (tables key on destination only),
			// so the choice must be self-consistent under hop-by-hop
			// following: whenever a pure down path exists, take it; only
			// climb when no down path exists. Once any device switches
			// to the down phase, every subsequent device also has a pure
			// down path (the suffix) and keeps descending, so greedy
			// concatenation always yields a legal up*-then-down* path.
			d0, d1 := dist0[dev], dist1[dev]
			switch {
			case d0 >= 0:
				r.Next[dev][dst] = next[dev][0]
			case d1 >= 0:
				r.Next[dev][dst] = next[dev][1]
			default:
				r.Next[dev][dst] = Unreachable
			}
		}
	}
}

// At returns the exit interface at device dev for destination dst.
func (r *Routes) At(dev, dst int) int { return r.Next[dev][dst] }

// Topology returns the topology the tables were computed for, or nil if
// they do not know it (tables decoded without ReadJSON).
func (r *Routes) Topology() *topology.Topology { return r.topo }

// Key returns a canonical identifier of the routing problem: the exact
// wiring of the topology plus the policy. Two topologies with identical
// device/interface counts and identical connection lists (in order)
// produce the same key; any difference in wiring or policy produces a
// different key. The key is an exact description, not a hash, so
// distinct problems can never collide — which is what makes it safe as
// a cache key for computed routing tables (internal/service reuses
// verified tables across jobs keyed by this string).
func Key(t *topology.Topology, p Policy) string {
	var b strings.Builder
	fmt.Fprintf(&b, "v1;policy=%d;devices=%d;ifaces=%d;", p, t.Devices, t.Ifaces)
	for _, c := range t.Connections {
		fmt.Fprintf(&b, "%d:%d-%d:%d;", c.A.Device, c.A.Iface, c.B.Device, c.B.Iface)
	}
	return b.String()
}

// Clone returns a deep copy of the route set. Clusters mutate their
// Routes in place during failover (CopyFrom), so any cached or shared
// tables must be cloned before being handed to a cluster.
func (r *Routes) Clone() *Routes {
	out := &Routes{}
	out.CopyFrom(r)
	return out
}

// Equal reports whether two route sets carry bit-identical forwarding
// tables under the same policy and dimensions.
func (r *Routes) Equal(o *Routes) bool {
	if r.Policy != o.Policy || r.Devices != o.Devices || r.Ifaces != o.Ifaces || len(r.Next) != len(o.Next) {
		return false
	}
	for d := range r.Next {
		if len(r.Next[d]) != len(o.Next[d]) {
			return false
		}
		for dst := range r.Next[d] {
			if r.Next[d][dst] != o.Next[d][dst] {
				return false
			}
		}
	}
	return true
}

// CopyFrom overwrites this route set in place with o's tables, policy,
// and topology. The transport layer holds a pointer to its Routes, so an
// in-place copy is how the fault manager atomically "uploads" the
// regenerated tables to every device between cycles after a permanent
// link failure (the paper's host-side table upload of §4.3, without a
// bitstream rebuild).
func (r *Routes) CopyFrom(o *Routes) {
	r.Policy = o.Policy
	r.Devices = o.Devices
	r.Ifaces = o.Ifaces
	r.topo = o.topo
	r.Next = make([][]int, len(o.Next))
	for d := range o.Next {
		r.Next[d] = append([]int(nil), o.Next[d]...)
	}
}

// Path returns the device sequence from src to dst, inclusive, or nil if
// unreachable.
func (r *Routes) Path(src, dst int) []int {
	adj := r.topo.Adjacent()
	path := []int{src}
	dev := src
	for dev != dst {
		i := r.Next[dev][dst]
		if i < 0 {
			return nil
		}
		dev = adj[dev][i].Device
		path = append(path, dev)
		if len(path) > r.Devices*r.Devices+1 {
			return nil // routing loop
		}
	}
	return path
}

// Hops returns the number of link traversals from src to dst, or -1 if
// unreachable.
func (r *Routes) Hops(src, dst int) int {
	p := r.Path(src, dst)
	if p == nil {
		return -1
	}
	return len(p) - 1
}

// WriteJSON serializes the routing tables (the artifact cmd/routegen
// produces and the host program "uploads" to each device).
func (r *Routes) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// ReadJSON parses routing tables written by WriteJSON. The topology is
// required to restore path reconstruction.
func ReadJSON(rd io.Reader, t *topology.Topology) (*Routes, error) {
	var r Routes
	if err := json.NewDecoder(rd).Decode(&r); err != nil {
		return nil, fmt.Errorf("routing: parsing JSON: %w", err)
	}
	if r.Devices != t.Devices || r.Ifaces != t.Ifaces {
		return nil, fmt.Errorf("routing: tables are for %d devices/%d ifaces, topology has %d/%d",
			r.Devices, r.Ifaces, t.Devices, t.Ifaces)
	}
	r.topo = t
	return &r, nil
}
