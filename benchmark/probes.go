package main

import (
	"fmt"
	"runtime"
	"time"

	smi "repro/internal/core"
	"repro/internal/link"
	"repro/internal/packet"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/workload"
)

// The probes are micro loops around public constructors and methods of
// one layer each. They are the same in every traced run, whatever the
// workload, and give the unit costs an end-to-end number decomposes
// into. Each loop is timed probeTrials times and the median is kept.

const probeTrials = 3

// sink keeps the packet loops' results alive.
var sink uint64

// scaled sizes a loop; the smoke test runs at 1/100.
func scaled(n int, scale float64) int { return max(int(float64(n)*scale), 16) }

// timeOp returns the median ns per operation, and mallocs per
// operation, of f, which performs n operations.
func timeOp(n int, f func() error) (ns, allocs float64, err error) {
	var nss, als []float64
	for t := 0; t < probeTrials; t++ {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		start := time.Now()
		if err := f(); err != nil {
			return 0, 0, err
		}
		d := time.Since(start)
		runtime.ReadMemStats(&m1)
		nss = append(nss, float64(d.Nanoseconds())/float64(n))
		als = append(als, float64(m1.Mallocs-m0.Mallocs)/float64(n))
	}
	return median(nss), median(als), nil
}

// busyKernel always reports work, so the engine ticks it every cycle.
type busyKernel struct{}

func (busyKernel) Name() string    { return "busy" }
func (busyKernel) Tick(int64) bool { return true }

// idleKernel never has work and parks until an external wake.
type idleKernel struct{}

func (idleKernel) Name() string          { return "idle" }
func (idleKernel) Tick(int64) bool       { return false }
func (idleKernel) IdleUntil(int64) int64 { return sim.Never }

// runProbes measures every workload-independent per-layer metric.
func runProbes(scale float64, out metricSet) error {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))

	type probe struct {
		ns, allocs string // metric names; allocs may be empty
		n          int
		f          func(n int) error
	}
	var word [packet.Size]byte
	pkt := packet.Packet{Src: 1, Dst: 2, Port: 3, Op: packet.OpData, Count: 7}
	probes := []probe{
		{ns: "sim.kernel_tick_ns", n: 64 * scaled(100_000, scale), f: func(n int) error {
			e := sim.NewEngine()
			for i := 0; i < 64; i++ {
				e.AddKernel(busyKernel{})
			}
			sim.NewProc(e, "timer", func(p *sim.Proc) { p.Sleep(int64(n / 64)) })
			return e.Run()
		}},
		{ns: "sim.proc_switch_ns", n: scaled(300_000, scale), f: func(n int) error {
			e := sim.NewEngine()
			sim.NewProc(e, "ticker", func(p *sim.Proc) {
				for i := 0; i < n; i++ {
					p.Tick()
				}
			})
			return e.Run()
		}},
		{ns: "sim.idle_skip_ns", n: scaled(200_000, scale), f: func(n int) error {
			e := sim.NewEngine()
			e.SetMaxCycles(int64(n)*1000 + 1000)
			for i := 0; i < 16; i++ {
				e.AddKernel(idleKernel{})
			}
			sim.NewProc(e, "sleeper", func(p *sim.Proc) {
				for i := 0; i < n; i++ {
					p.Sleep(1000)
				}
			})
			return e.Run()
		}},
		{ns: "sim.fifo_ns_per_elem", allocs: "sim.fifo_allocs_per_elem", n: scaled(300_000, scale), f: func(n int) error {
			e := sim.NewEngine()
			f := sim.NewFifo[uint64](e, "f", 8)
			sim.NewProc(e, "producer", func(p *sim.Proc) {
				for i := 0; i < n; i++ {
					f.PushProc(p, uint64(i))
				}
			})
			sim.NewProc(e, "consumer", func(p *sim.Proc) {
				for i := 0; i < n; i++ {
					f.PopProc(p)
				}
			})
			return e.Run()
		}},
		{ns: "packet.encode_ns", n: scaled(5_000_000, scale), f: func(n int) error {
			p := pkt
			for i := 0; i < n; i++ {
				p.Port = uint8(i)
				w := p.Encode()
				sink += uint64(w[2])
			}
			return nil
		}},
		{ns: "packet.decode_ns", n: scaled(5_000_000, scale), f: func(n int) error {
			w := word
			for i := 0; i < n; i++ {
				w[2] = uint8(i)
				p := packet.Decode(w)
				sink += uint64(p.Port)
			}
			return nil
		}},
		{ns: "packet.checksum_ns", n: scaled(3_000_000, scale), f: func(n int) error {
			for i := 0; i < n; i++ {
				sink += uint64(packet.Checksum(word, uint64(i), 0, 0))
			}
			return nil
		}},
		{ns: "packet.raw_roundtrip_ns", n: scaled(5_000_000, scale), f: func(n int) error {
			p := pkt
			for i := 0; i < n; i++ {
				p.Extra[0] = uint8(i)
				q := packet.DecodeRaw(p.EncodeRaw(), p.Count)
				sink += uint64(q.Extra[0])
			}
			return nil
		}},
		{ns: "link.hop_ns", n: scaled(100_000, scale), f: func(n int) error {
			e := sim.NewEngine()
			in := sim.NewFifo[packet.Packet](e, "in", 8)
			out := sim.NewFifo[packet.Packet](e, "out", 8)
			l := link.New(e, e, "probe", in, out, 0)
			return pumpPackets(e, in, out, n, l.Delivered)
		}},
		{ns: "link.reliable_hop_ns", allocs: "link.reliable_allocs_per_packet", n: scaled(100_000, scale), f: func(n int) error {
			e := sim.NewEngine()
			fifo := func(name string) *sim.Fifo[packet.Packet] { return sim.NewFifo[packet.Packet](e, name, 8) }
			in, out := fifo("inAB"), fifo("outAB")
			ab, _ := link.NewReliablePair(e, e, "ab", "ba", in, out, fifo("inBA"), fifo("outBA"),
				0, link.ReliableParams{}, nil, nil, nil, nil)
			return pumpPackets(e, in, out, n, ab.Delivered)
		}},
		{ns: "core.push_pop_ns_per_elem", n: scaled(65536, scale), f: func(n int) error {
			return channelProbe(n, false)
		}},
		{ns: "core.slice_ns_per_elem", n: scaled(65536, scale), f: func(n int) error {
			return channelProbe(n, true)
		}},
	}
	for _, p := range probes {
		ns, allocs, err := timeOp(p.n, func() error { return p.f(p.n) })
		if err != nil {
			return fmt.Errorf("probe %s: %w", p.ns, err)
		}
		out.set(p.ns, ns)
		if p.allocs != "" {
			out.set(p.allocs, allocs)
		}
	}
	if err := constructionProbes(out); err != nil {
		return err
	}
	return forwardProbe(scale, out)
}

// pumpPackets streams n packets from one proc through in -> (link) ->
// out to another and checks the link delivered them all.
func pumpPackets(e *sim.Engine, in, out *sim.Fifo[packet.Packet], n int, delivered func() uint64) error {
	sim.NewProc(e, "tx", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			in.PushProc(p, packet.Packet{Op: packet.OpData, Count: 1})
		}
	})
	sim.NewProc(e, "rx", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			out.PopProc(p)
		}
	})
	if err := e.Run(); err != nil {
		return err
	}
	if got := delivered(); got != uint64(n) {
		return fmt.Errorf("link delivered %d of %d packets", got, n)
	}
	return nil
}

// channelProbe moves n int32 elements between the two ranks of a bus,
// element by element or through the slice API.
func channelProbe(n int, slices bool) error {
	topo, err := topology.Bus(2)
	if err != nil {
		return err
	}
	c, err := smi.NewCluster(smi.Config{
		Topology: topo,
		Program:  smi.ProgramSpec{Ports: []smi.PortSpec{{Port: 0, Type: smi.Int}}},
	})
	if err != nil {
		return err
	}
	data := make([]int32, n)
	got := make([]int32, n)
	for i := range data {
		data[i] = int32(i)
	}
	// A failed open or transfer panics inside the rank program, which
	// the engine reports as an error from Run.
	check := func(err error) {
		if err != nil {
			panic(err)
		}
	}
	err = c.OnRank(0, "src", func(x *smi.Ctx) {
		ch, err := x.OpenSend(smi.ChannelOpts{Count: n, Type: smi.Int, Dst: 1, Port: 0})
		check(err)
		if slices {
			_, err := smi.PushSlice(ch, data)
			check(err)
			return
		}
		for _, v := range data {
			smi.Push(ch, v)
		}
	})
	if err != nil {
		return err
	}
	err = c.OnRank(1, "dst", func(x *smi.Ctx) {
		ch, err := x.OpenRecv(smi.ChannelOpts{Count: n, Type: smi.Int, Src: 0, Port: 0})
		check(err)
		if slices {
			_, err := smi.PopSlice(ch, got)
			check(err)
			return
		}
		for i := range got {
			got[i] = smi.Pop[int32](ch)
		}
	})
	if err != nil {
		return err
	}
	if _, err := c.Run(); err != nil {
		return err
	}
	if got[n-1] != data[n-1] {
		return fmt.Errorf("channel probe: last element %d, want %d", got[n-1], data[n-1])
	}
	return nil
}

// constructionProbes times the set-up layers: topology and route-table
// builders, the deadlock-freedom check, and a 64-rank cluster build.
func constructionProbes(out metricSet) error {
	var (
		topo   *topology.Topology
		routes *routing.Routes
		err    error
	)
	timeMs := func(name string, per float64, f func() error) error {
		ns, _, err := timeOp(1, f)
		if err != nil {
			return fmt.Errorf("probe %s: %w", name, err)
		}
		out.set(name, ns/per)
		return nil
	}
	steps := []struct {
		name string
		per  float64 // ns per reported unit
		f    func() error
	}{
		{"topology.build_us_torus64", 1e3, func() error { topo, err = topology.Torus2D(8, 8); return err }},
		{"routing.compute_ms_torus64_updown", 1e6, func() error { routes, err = routing.Compute(topo, routing.UpDown); return err }},
		{"routing.verify_ms_torus64", 1e6, func() error { return routing.VerifyDeadlockFree(routes) }},
		{"core.cluster_build_ms_r64", 1e6, func() error {
			_, err := smi.NewCluster(smi.Config{
				Topology: topo, RoutingPolicy: routing.UpDown, Routes: routes,
				Program: smi.ProgramSpec{Ports: []smi.PortSpec{{Port: 0, Kind: smi.Bcast, Type: smi.Float, BufferElems: 512}}},
			})
			return err
		}},
		{"routing.compute_ms_torus256_sp", 1e6, func() error {
			big, err := topology.Torus2D(16, 16)
			if err != nil {
				return err
			}
			_, err = routing.Compute(big, routing.ShortestPath)
			return err
		}},
	}
	for _, s := range steps {
		if err := timeMs(s.name, s.per, s.f); err != nil {
			return err
		}
	}
	return nil
}

// forwardProbe isolates one extra CKS + link + CKR hop: a packet-mode
// bandwidth run over 7 hops of an 8-bus minus the same transfer over
// the 1 hop of a 2-bus, divided by the 6 extra hops every packet makes.
func forwardProbe(scale float64, out metricSet) error {
	elems := scaled(65536, scale)
	run := func(ranks int) (hostNs float64, cycles int64, err error) {
		topo, err := topology.Bus(ranks)
		if err != nil {
			return 0, 0, err
		}
		p := workload.Params{Ranks: ranks, Size: elems, Mode: "packet", Topology: topo}
		hostNs, _, err = timeOp(1, func() error {
			res, err := workload.Run("bandwidth", p)
			cycles = res.Cycles
			return err
		})
		return hostNs, cycles, err
	}
	farNs, farCycles, err := run(8)
	if err != nil {
		return fmt.Errorf("probe transport.ns_per_forward: %w", err)
	}
	nearNs, nearCycles, err := run(2)
	if err != nil {
		return fmt.Errorf("probe transport.ns_per_forward: %w", err)
	}
	perPacket := packet.Int.ElemsPerPacket()
	packets := float64((elems + perPacket - 1) / perPacket)
	out.set("transport.ns_per_forward", (farNs-nearNs)/(6*packets))
	out.set("transport.forward_cycles_per_hop", float64(farCycles-nearCycles)/6)
	return nil
}
