package smi

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/routing"
	"repro/internal/topology"
)

// A pristine cluster only reads precomputed routes, so it shares the
// caller's tables; a reliable one has a fault manager that rewrites its
// tables on failover, and works on a copy.
func TestPrecomputedRoutesSharedUnlessReliable(t *testing.T) {
	topo, err := topology.Bus(4)
	if err != nil {
		t.Fatal(err)
	}
	routes, err := routing.Compute(topo, routing.ShortestPath)
	if err != nil {
		t.Fatal(err)
	}
	prog := ProgramSpec{Ports: []PortSpec{{Port: 0, Type: Int}}}
	pristine, err := NewCluster(Config{Topology: topo, Program: prog, Routes: routes})
	if err != nil {
		t.Fatal(err)
	}
	if pristine.Routes() != routes {
		t.Error("a pristine cluster copied the caller's route tables")
	}
	reliable, err := NewCluster(Config{Topology: topo, Program: prog, Routes: routes, Reliable: true})
	if err != nil {
		t.Fatal(err)
	}
	if reliable.Routes() == routes || !reliable.Routes().Equal(routes) {
		t.Error("a reliable cluster must work on an equal copy of the caller's route tables")
	}
}

// A cable death in a reliable cluster regenerates the cluster's tables
// and leaves the caller's (say, a service's route cache) as they were.
func TestFailoverLeavesCallerRoutes(t *testing.T) {
	topo, err := topology.Torus2D(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	routes, err := routing.Compute(topo, routing.UpDown)
	if err != nil {
		t.Fatal(err)
	}
	before := routes.Clone()
	const src, dst = 0, 5
	exit := routes.At(src, dst)
	nb, ok := topo.Neighbor(src, exit)
	if !ok {
		t.Fatal("routed exit interface is not cabled")
	}
	cfg := Config{
		Topology:      topo,
		Program:       ProgramSpec{Ports: []PortSpec{{Port: 0, Type: Int}}},
		RoutingPolicy: routing.UpDown,
		Routes:        routes,
		Faults: &fault.Spec{Events: []fault.Event{
			{Link: fmt.Sprintf("%d:%d->%d:%d", src, exit, nb.Device, nb.Iface), Kind: fault.Kill, At: 1000},
		}},
	}
	const n = 4000
	st, got := streamRun(t, cfg, src, dst, n)
	checkStream(t, got, n)
	if st.Failovers != 1 {
		t.Fatalf("want exactly one failover, got %d", st.Failovers)
	}
	if !reflect.DeepEqual(routes, before) {
		t.Error("failover rewrote the caller's route tables")
	}
}

// Tables computed for one wiring are rejected for another with the same
// device and interface counts, and the error names both topologies.
func TestRoutesForOtherWiringRejected(t *testing.T) {
	ring, err := topology.Ring(8)
	if err != nil {
		t.Fatal(err)
	}
	bus, err := topology.Bus(8)
	if err != nil {
		t.Fatal(err)
	}
	routes, err := routing.Compute(ring, routing.ShortestPath)
	if err != nil {
		t.Fatal(err)
	}
	_, err = NewCluster(Config{Topology: bus, Program: ProgramSpec{Ports: []PortSpec{{Port: 0}}}, Routes: routes})
	if err == nil || !strings.Contains(err.Error(), `"ring-8"`) || !strings.Contains(err.Error(), `"bus-8"`) {
		t.Fatalf("ring routes on a bus: err %v, want one naming both topologies", err)
	}
	// The same wiring in another Topology value is accepted.
	same, err := topology.Ring(8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewCluster(Config{Topology: same, Program: ProgramSpec{Ports: []PortSpec{{Port: 0}}}, Routes: routes}); err != nil {
		t.Fatalf("routes for an identical wiring rejected: %v", err)
	}
}
