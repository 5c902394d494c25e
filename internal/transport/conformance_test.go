package transport

import (
	"testing"

	"repro/internal/topology"
)

// TestConformance is a table of per-channel integrity invariants: no
// loss, duplication, or reordering of the packets of one (src, dst,
// port) flow, for direct links, multi-hop forwarding, bidirectional
// traffic, and incast; and no drops on a clean run.
func TestConformance(t *testing.T) {
	type scenario struct {
		name  string
		topo  func() *topology.Topology
		ports []int
		// flows: src, dst, port, count
		flows [][4]int
	}
	scenarios := []scenario{
		{
			name:  "direct",
			topo:  func() *topology.Topology { tp, _ := topology.Bus(2); return tp },
			ports: []int{0},
			flows: [][4]int{{0, 1, 0, 200}},
		},
		{
			name:  "multi-hop",
			topo:  func() *topology.Topology { tp, _ := topology.Bus(4); return tp },
			ports: []int{0},
			flows: [][4]int{{0, 3, 0, 120}},
		},
		{
			name:  "bidirectional",
			topo:  func() *topology.Topology { tp, _ := topology.Bus(2); return tp },
			ports: []int{0, 1},
			flows: [][4]int{{0, 1, 0, 150}, {1, 0, 1, 150}},
		},
		{
			name:  "incast-4to1",
			topo:  func() *topology.Topology { tp, _ := topology.Bus(5); return tp },
			ports: []int{0, 1, 2, 3},
			flows: [][4]int{{1, 0, 0, 90}, {2, 0, 1, 90}, {3, 0, 2, 90}, {4, 0, 3, 90}},
		},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			n := buildNet(t, sc.topo(), sc.ports, DefaultConfig(), 5)
			for _, fl := range sc.flows {
				n.stream(t, fl[0], fl[1], fl[2], fl[3])
			}
			if err := n.eng.Run(); err != nil {
				t.Fatal(err)
			}
			for r, d := range n.devices {
				if d.Dropped() != 0 {
					t.Errorf("device %d dropped %d packets on a clean run", r, d.Dropped())
				}
			}
		})
	}
}

func TestParseArbiter(t *testing.T) {
	cases := []struct {
		in   string
		want Arbiter
		err  bool
	}{
		{"", ArbiterRoundRobin, false},
		{"round-robin", ArbiterRoundRobin, false},
		{"skip-idle", ArbiterSkipIdle, false},
		{"lru", 0, true},
	}
	for _, tc := range cases {
		got, err := ParseArbiter(tc.in)
		if (err != nil) != tc.err {
			t.Errorf("ParseArbiter(%q) error = %v, want error %v", tc.in, err, tc.err)
			continue
		}
		if err == nil && got != tc.want {
			t.Errorf("ParseArbiter(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}
