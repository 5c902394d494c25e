// Command smitrace runs a demo SMI workload on the simulated cluster
// and writes a Chrome trace-event file showing, cycle by cycle, what
// every application kernel and hardware kernel was doing. Load the
// output in chrome://tracing or https://ui.perfetto.dev (one trace
// microsecond equals one simulated clock cycle).
//
// Usage:
//
//	smitrace -workload reduce -out trace.json
//	smitrace -workload stencil -out trace.json
//	smitrace -workload pingpong -out trace.json
//	smitrace -workload stencil -faults spec.json -out trace.json
//
// With -faults, the JSON fault schedule (see internal/fault.Spec) is
// replayed into the run: links retransmit through drops and flaps, and
// every injected fault and failover phase appears as an instant marker
// on a "fault:" lane of the trace.
package main

import (
	"flag"
	"fmt"
	"os"

	smi "repro/internal/core"
	"repro/internal/fault"
	"repro/internal/routing"
	"repro/internal/topology"
)

func main() {
	workload := flag.String("workload", "reduce", "workload to trace: pingpong, reduce, stencil")
	out := flag.String("out", "trace.json", "output trace file")
	faultsPath := flag.String("faults", "", "JSON fault schedule to replay into the run (fault.Spec)")
	flag.Parse()

	var spec *fault.Spec
	if *faultsPath != "" {
		sf, err := os.Open(*faultsPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "smitrace:", err)
			os.Exit(1)
		}
		spec, err = fault.ReadJSON(sf)
		sf.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, "smitrace:", err)
			os.Exit(1)
		}
	}

	f, err := os.Create(*out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "smitrace:", err)
		os.Exit(1)
	}
	defer f.Close()

	var stats smi.Stats
	switch *workload {
	case "pingpong":
		stats, err = tracePingPong(f, spec)
	case "reduce":
		stats, err = traceReduce(f, spec)
	case "stencil":
		stats, err = traceStencil(f, spec)
	default:
		err = fmt.Errorf("unknown workload %q", *workload)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "smitrace:", err)
		os.Exit(1)
	}
	fmt.Printf("traced %s: %d cycles (%.2f us) -> %s\n", *workload, stats.Cycles, stats.Micros, *out)
	if spec != nil {
		fmt.Printf("faults: %d dropped, %d corrupted, %d lost to down links, %d retransmits, %d failovers\n",
			stats.FaultsInjected.Dropped, stats.FaultsInjected.Corrupted, stats.FaultsInjected.FlapLost,
			stats.Retransmits, stats.Failovers)
	}
}

func tracePingPong(f *os.File, spec *fault.Spec) (smi.Stats, error) {
	topo, err := topology.Bus(4)
	if err != nil {
		return smi.Stats{}, err
	}
	c, err := smi.NewCluster(smi.Config{
		Topology: topo,
		Program: smi.ProgramSpec{Ports: []smi.PortSpec{
			{Port: 0, Type: smi.Int}, {Port: 1, Type: smi.Int},
		}},
		ChromeTrace:   f,
		Faults:        spec,
		RoutingPolicy: routing.UpDown,
	})
	if err != nil {
		return smi.Stats{}, err
	}
	c.OnRank(0, "ping", func(x *smi.Ctx) {
		for r := 0; r < 4; r++ {
			s, _ := x.OpenSendChannel(1, smi.Int, 3, 0, x.CommWorld())
			smi.Push(s, int32(r))
			v, _ := x.OpenRecvChannel(1, smi.Int, 3, 1, x.CommWorld())
			smi.Pop[int32](v)
		}
	})
	c.OnRank(3, "pong", func(x *smi.Ctx) {
		for r := 0; r < 4; r++ {
			v, _ := x.OpenRecvChannel(1, smi.Int, 0, 0, x.CommWorld())
			got := smi.Pop[int32](v)
			s, _ := x.OpenSendChannel(1, smi.Int, 0, 1, x.CommWorld())
			smi.Push(s, got)
		}
	})
	return c.Run()
}

func traceReduce(f *os.File, spec *fault.Spec) (smi.Stats, error) {
	topo, err := topology.Torus2D(2, 4)
	if err != nil {
		return smi.Stats{}, err
	}
	c, err := smi.NewCluster(smi.Config{
		Topology: topo,
		Program: smi.ProgramSpec{Ports: []smi.PortSpec{
			{Port: 0, Kind: smi.Reduce, Type: smi.Float, ReduceOp: smi.Add, CreditElems: 128},
		}},
		ChromeTrace:   f,
		Faults:        spec,
		RoutingPolicy: routing.UpDown,
	})
	if err != nil {
		return smi.Stats{}, err
	}
	const n = 2048
	c.SPMD("reduce", func(x *smi.Ctx) {
		ch, err := x.OpenReduceChannel(n, smi.Float, smi.Add, 0, 0, x.CommWorld())
		if err != nil {
			panic(err)
		}
		for i := 0; i < n; i++ {
			ch.ReduceFloat(float32(x.Rank()))
		}
	})
	return c.Run()
}

func traceStencil(f *os.File, spec *fault.Spec) (smi.Stats, error) {
	topo, err := topology.Torus2D(2, 2)
	if err != nil {
		return smi.Stats{}, err
	}
	c, err := smi.NewCluster(smi.Config{
		Topology: topo,
		Program: smi.ProgramSpec{Ports: []smi.PortSpec{
			{Port: 1, Type: smi.Float, BufferElems: 264},
			{Port: 2, Type: smi.Float, BufferElems: 264},
			{Port: 3, Type: smi.Float, BufferElems: 264},
			{Port: 4, Type: smi.Float, BufferElems: 264},
		}},
		ChromeTrace:   f,
		Faults:        spec,
		RoutingPolicy: routing.UpDown,
	})
	if err != nil {
		return smi.Stats{}, err
	}
	// A compact halo-exchange pattern (2x2 rank grid, 3 timesteps):
	// every rank trades a 256-element boundary with its grid neighbors.
	const halo, steps = 256, 3
	c.SPMD("halo", func(x *smi.Ctx) {
		rx, ry := x.Rank()/2, x.Rank()%2
		for t := 0; t < steps; t++ {
			type edge struct {
				neighbor int
				sendPort int
				recvPort int
			}
			var edges []edge
			if rx == 0 {
				edges = append(edges, edge{x.Rank() + 2, 1, 2}) // south neighbor
			} else {
				edges = append(edges, edge{x.Rank() - 2, 2, 1}) // north neighbor
			}
			if ry == 0 {
				edges = append(edges, edge{x.Rank() + 1, 3, 4}) // east neighbor
			} else {
				edges = append(edges, edge{x.Rank() - 1, 4, 3}) // west neighbor
			}
			for _, e := range edges {
				s, err := x.OpenSendChannel(halo, smi.Float, e.neighbor, e.sendPort, x.CommWorld())
				if err != nil {
					panic(err)
				}
				for i := 0; i < halo; i++ {
					smi.Push(s, float32(i))
				}
			}
			for _, e := range edges {
				r, err := x.OpenRecvChannel(halo, smi.Float, e.neighbor, e.recvPort, x.CommWorld())
				if err != nil {
					panic(err)
				}
				for i := 0; i < halo; i++ {
					smi.Pop[float32](r)
				}
			}
			x.Sleep(2000) // the compute sweep between exchanges
		}
	})
	return c.Run()
}
