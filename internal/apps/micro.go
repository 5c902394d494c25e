// Package apps implements the paper's evaluation workloads on top of
// the SMI library: the four microbenchmarks of §5.3 (bandwidth, latency,
// injection rate, collectives) and the two distributed applications of
// §5.4 (GESUMMV and a 4-point stencil).
package apps

import (
	"fmt"

	smi "repro/internal/core"
	"repro/internal/fault"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/transport"
)

// NetConfig bundles the cluster knobs the microbenchmarks sweep.
type NetConfig struct {
	Topology  *topology.Topology
	Transport transport.Config
	// RoutingPolicy selects the route generator (default shortest-path).
	RoutingPolicy routing.Policy
	// LinkLatency overrides the link latency in cycles (0 = default).
	LinkLatency int64
	// VecWidth is the application datapath width in elements per cycle.
	VecWidth int
	// BufferElems is the endpoint buffer size (asynchronicity degree).
	BufferElems int
	// Mode selects the P2P transfer machinery for bulk microbenchmarks
	// (default smi.ModePacket).
	Mode smi.Mode
	// StreamBatch is the streaming fragment size in raw words
	// (smi.ModeStreaming only; 0 picks the port default).
	StreamBatch int
	// MaxCycles optionally bounds the simulation.
	MaxCycles int64
	// Faults attaches a fault-injection schedule (enables the reliable
	// link layer); Reliable enables the protocol without faults.
	Faults   *fault.Spec
	Reliable bool
	// Scheduler selects the simulator's scheduling mode (default
	// sim.SchedEvent); cycle counts are identical in all modes.
	Scheduler sim.SchedulerKind
	// Shards is the worker-slot count of sim.SchedShardAdaptive (see
	// smi.Config.Shards); 0 keeps the single-engine build.
	Shards int
	// Routes supplies precomputed routing tables (see smi.Config.Routes).
	Routes *routing.Routes
	// Progress/ProgressEvery install a cycle-progress observer (see
	// smi.Config.Progress).
	Progress      func(cycle int64)
	ProgressEvery int64
}

// cluster translates the shared NetConfig knobs into an smi.Config with
// the given program.
func (cfg NetConfig) cluster(prog smi.ProgramSpec) (*smi.Cluster, error) {
	return smi.NewCluster(smi.Config{
		Topology:      cfg.Topology,
		Program:       prog,
		Transport:     cfg.Transport,
		RoutingPolicy: cfg.RoutingPolicy,
		Routes:        cfg.Routes,
		LinkLatency:   cfg.LinkLatency,
		MaxCycles:     cfg.MaxCycles,
		Faults:        cfg.Faults,
		Reliable:      cfg.Reliable,
		Scheduler:     cfg.Scheduler,
		Shards:        cfg.Shards,
		Progress:      cfg.Progress,
		ProgressEvery: cfg.ProgressEvery,
	})
}

// checkRanks validates that every named rank exists in the topology and
// that the ranks are pairwise distinct, so a malformed request fails
// with an error instead of deadlocking a run on a never-registered rank
// program.
func (cfg NetConfig) checkRanks(ranks ...int) error {
	if cfg.Topology == nil {
		return fmt.Errorf("apps: config needs a topology")
	}
	for i, r := range ranks {
		if r < 0 || r >= cfg.Topology.Devices {
			return fmt.Errorf("apps: rank %d out of range [0,%d)", r, cfg.Topology.Devices)
		}
		for _, s := range ranks[:i] {
			if s == r {
				return fmt.Errorf("apps: rank %d named twice", r)
			}
		}
	}
	return nil
}

// checkGroup validates a collective over ranks [0, ranks).
func (cfg NetConfig) checkGroup(ranks int) error {
	if cfg.Topology == nil {
		return fmt.Errorf("apps: config needs a topology")
	}
	if ranks < 2 || ranks > cfg.Topology.Devices {
		return fmt.Errorf("apps: collective over %d ranks outside [2,%d]", ranks, cfg.Topology.Devices)
	}
	return nil
}

// BandwidthResult reports one bandwidth measurement.
type BandwidthResult struct {
	Bytes  int64   // payload bytes transferred
	Cycles int64   // completion cycle of the receiver
	Micros float64 // simulated microseconds
	Gbps   float64 // effective payload bandwidth
	Hops   int     // network distance between the endpoints
	Net    smi.Stats
}

// Bandwidth streams elems 32-bit integers from rank src to rank dst and
// reports the achieved payload bandwidth — the §5.3.1 microbenchmark.
// The sender uses a vectorized datapath wide enough to saturate one
// packet per cycle unless cfg.VecWidth says otherwise. cfg.Mode selects
// the transfer machinery (packet, credited, circuit, or streaming); the
// endpoints move data through the bulk PushSlice/PopSlice API.
func Bandwidth(cfg NetConfig, src, dst, elems int) (BandwidthResult, error) {
	vec := cfg.VecWidth
	if vec <= 0 {
		vec = 8 // enough to fill a 7-int packet every cycle
	}
	buf := cfg.BufferElems
	if buf <= 0 {
		buf = 4096
	}
	if err := cfg.checkRanks(src, dst); err != nil {
		return BandwidthResult{}, err
	}
	c, err := cfg.cluster(smi.ProgramSpec{Ports: []smi.PortSpec{{
		Port: 0, Type: smi.Int, VecWidth: vec, BufferElems: buf,
		Mode: cfg.Mode, StreamBatch: cfg.StreamBatch,
	}}})
	if err != nil {
		return BandwidthResult{}, err
	}
	data := make([]int32, elems)
	for i := range data {
		data[i] = int32(i)
	}
	c.OnRank(src, "source", func(x *smi.Ctx) {
		ch, err := x.OpenSend(smi.ChannelOpts{Count: elems, Type: smi.Int, Dst: dst, Port: 0})
		if err != nil {
			panic(err)
		}
		if _, err := smi.PushSlice(ch, data); err != nil {
			panic(err)
		}
	})
	c.OnRank(dst, "sink", func(x *smi.Ctx) {
		ch, err := x.OpenRecv(smi.ChannelOpts{Count: elems, Type: smi.Int, Src: src, Port: 0})
		if err != nil {
			panic(err)
		}
		got := make([]int32, elems)
		if _, err := smi.PopSlice(ch, got); err != nil {
			panic(err)
		}
		for i := range got {
			if got[i] != int32(i) {
				panic(fmt.Sprintf("bandwidth: element %d corrupted: %d", i, got[i]))
			}
		}
	})
	st, err := c.Run()
	if err != nil {
		return BandwidthResult{}, err
	}
	bytes := int64(elems) * 4
	res := BandwidthResult{
		Bytes:  bytes,
		Cycles: st.Cycles,
		Micros: st.Micros,
		Hops:   c.Routes().Hops(src, dst),
		Net:    st,
	}
	res.Gbps = float64(bytes) * 8 / (st.Micros * 1e3)
	return res, nil
}

// PingPongResult reports a latency measurement.
type PingPongResult struct {
	Rounds    int
	Cycles    int64
	LatencyUs float64 // half round-trip time
	Hops      int
	Net       smi.Stats
}

// PingPong bounces a single-element message between two ranks and
// reports the one-way latency — the §5.3.2 microbenchmark and Table 3.
func PingPong(cfg NetConfig, a, b, rounds int) (PingPongResult, error) {
	if err := cfg.checkRanks(a, b); err != nil {
		return PingPongResult{}, err
	}
	c, err := cfg.cluster(smi.ProgramSpec{Ports: []smi.PortSpec{
		{Port: 0, Type: smi.Int}, // a -> b
		{Port: 1, Type: smi.Int}, // b -> a
	}})
	if err != nil {
		return PingPongResult{}, err
	}
	c.OnRank(a, "ping", func(x *smi.Ctx) {
		for r := 0; r < rounds; r++ {
			s, _ := x.OpenSend(smi.ChannelOpts{Count: 1, Type: smi.Int, Dst: b, Port: 0})
			smi.Push(s, int32(r))
			v, _ := x.OpenRecv(smi.ChannelOpts{Count: 1, Type: smi.Int, Src: b, Port: 1})
			if got := smi.Pop[int32](v); got != int32(r) {
				panic(fmt.Sprintf("pingpong: round %d echoed %d", r, got))
			}
		}
	})
	c.OnRank(b, "pong", func(x *smi.Ctx) {
		for r := 0; r < rounds; r++ {
			v, _ := x.OpenRecv(smi.ChannelOpts{Count: 1, Type: smi.Int, Src: a, Port: 0})
			got := smi.Pop[int32](v)
			s, _ := x.OpenSend(smi.ChannelOpts{Count: 1, Type: smi.Int, Dst: a, Port: 1})
			smi.Push(s, got)
		}
	})
	st, err := c.Run()
	if err != nil {
		return PingPongResult{}, err
	}
	return PingPongResult{
		Rounds:    rounds,
		Cycles:    st.Cycles,
		LatencyUs: st.Micros / float64(2*rounds),
		Hops:      c.Routes().Hops(a, b),
		Net:       st,
	}, nil
}

// InjectionResult reports an injection-rate measurement.
type InjectionResult struct {
	Messages       int
	Cycles         int64
	CyclesPerMsg   float64
	MsgsPerSecond  float64
	R              int
	ClockFrequency float64
}

// Injection measures how often a CKS accepts a new single-element
// message from the same application endpoint — the §5.3.3
// microbenchmark and Table 4. The sender opens a fresh transient channel
// per message (channel creation is zero-overhead), so every message is
// one network packet.
func Injection(cfg NetConfig, messages int) (InjectionResult, error) {
	if err := cfg.checkRanks(0, 1); err != nil {
		return InjectionResult{}, err
	}
	c, err := cfg.cluster(smi.ProgramSpec{Ports: []smi.PortSpec{{Port: 0, Type: smi.Int, BufferElems: 64}}})
	if err != nil {
		return InjectionResult{}, err
	}
	var start, end int64
	c.OnRank(0, "injector", func(x *smi.Ctx) {
		start = x.Now()
		for i := 0; i < messages; i++ {
			ch, err := x.OpenSend(smi.ChannelOpts{Count: 1, Type: smi.Int, Dst: 1, Port: 0})
			if err != nil {
				panic(err)
			}
			smi.Push(ch, int32(i))
		}
		end = x.Now()
	})
	c.OnRank(1, "sink", func(x *smi.Ctx) {
		for i := 0; i < messages; i++ {
			ch, err := x.OpenRecv(smi.ChannelOpts{Count: 1, Type: smi.Int, Src: 0, Port: 0})
			if err != nil {
				panic(err)
			}
			smi.Pop[int32](ch)
		}
	})
	if _, err := c.Run(); err != nil {
		return InjectionResult{}, err
	}
	cpm := float64(end-start) / float64(messages)
	return InjectionResult{
		Messages:       messages,
		Cycles:         end - start,
		CyclesPerMsg:   cpm,
		MsgsPerSecond:  c.Clock().Hz / cpm,
		R:              cfg.Transport.R,
		ClockFrequency: c.Clock().Hz,
	}, nil
}

// CollectiveResult reports one collective timing.
type CollectiveResult struct {
	Elems  int
	Ranks  int
	Cycles int64
	Micros float64
	Net    smi.Stats
}

// BcastTime broadcasts elems float32 elements from rank 0 to the first
// `ranks` devices of the topology and reports the completion time — one
// point of Fig 10.
func BcastTime(cfg NetConfig, ranks, elems int) (CollectiveResult, error) {
	buf := cfg.BufferElems
	if buf <= 0 {
		buf = 512
	}
	if err := cfg.checkGroup(ranks); err != nil {
		return CollectiveResult{}, err
	}
	c, err := cfg.cluster(smi.ProgramSpec{Ports: []smi.PortSpec{{Port: 0, Kind: smi.Bcast, Type: smi.Float, BufferElems: buf}}})
	if err != nil {
		return CollectiveResult{}, err
	}
	for r := 0; r < ranks; r++ {
		r := r
		c.OnRank(r, "bcast", func(x *smi.Ctx) {
			comm, err := x.CommWorld().Sub(0, ranks)
			if err != nil {
				panic(err)
			}
			ch, err := x.OpenBcastChannel(elems, smi.Float, 0, 0, comm)
			if err != nil {
				panic(err)
			}
			for i := 0; i < elems; i++ {
				v := float32(-1)
				if ch.Root() {
					v = float32(i)
				}
				got := ch.BcastFloat(v)
				if got != float32(i) {
					panic(fmt.Sprintf("bcast: rank %d element %d = %g", r, i, got))
				}
			}
		})
	}
	st, err := c.Run()
	if err != nil {
		return CollectiveResult{}, err
	}
	return CollectiveResult{Elems: elems, Ranks: ranks, Cycles: st.Cycles, Micros: st.Micros, Net: st}, nil
}

// ReduceTime sum-reduces elems float32 elements from the first `ranks`
// devices to rank 0 and reports the completion time — one point of
// Fig 11. creditElems sets the flow-control tile size C (0 = default).
func ReduceTime(cfg NetConfig, ranks, elems, creditElems int) (CollectiveResult, error) {
	buf := cfg.BufferElems
	if buf <= 0 {
		buf = 512
	}
	if err := cfg.checkGroup(ranks); err != nil {
		return CollectiveResult{}, err
	}
	c, err := cfg.cluster(smi.ProgramSpec{Ports: []smi.PortSpec{{
		Port: 0, Kind: smi.Reduce, Type: smi.Float, ReduceOp: smi.Add,
		BufferElems: buf, CreditElems: creditElems,
	}}})
	if err != nil {
		return CollectiveResult{}, err
	}
	for r := 0; r < ranks; r++ {
		r := r
		c.OnRank(r, "reduce", func(x *smi.Ctx) {
			comm, err := x.CommWorld().Sub(0, ranks)
			if err != nil {
				panic(err)
			}
			ch, err := x.OpenReduceChannel(elems, smi.Float, smi.Add, 0, 0, comm)
			if err != nil {
				panic(err)
			}
			for i := 0; i < elems; i++ {
				got, ok := ch.ReduceFloat(float32(r + 1))
				if ok {
					want := float32(ranks * (ranks + 1) / 2)
					if got != want {
						panic(fmt.Sprintf("reduce: element %d = %g, want %g", i, got, want))
					}
				}
			}
		})
	}
	st, err := c.Run()
	if err != nil {
		return CollectiveResult{}, err
	}
	return CollectiveResult{Elems: elems, Ranks: ranks, Cycles: st.Cycles, Micros: st.Micros, Net: st}, nil
}

// ScatterTime distributes elems float32 elements per rank from rank 0
// over the first `ranks` devices and reports the completion time.
func ScatterTime(cfg NetConfig, ranks, elems int) (CollectiveResult, error) {
	return oneToAllTime(cfg, ranks, elems, smi.Scatter)
}

// GatherTime collects elems float32 elements per rank at rank 0 from the
// first `ranks` devices and reports the completion time.
func GatherTime(cfg NetConfig, ranks, elems int) (CollectiveResult, error) {
	return oneToAllTime(cfg, ranks, elems, smi.Gather)
}

func oneToAllTime(cfg NetConfig, ranks, elems int, kind smi.PortKind) (CollectiveResult, error) {
	buf := cfg.BufferElems
	if buf <= 0 {
		buf = 512
	}
	if err := cfg.checkGroup(ranks); err != nil {
		return CollectiveResult{}, err
	}
	c, err := cfg.cluster(smi.ProgramSpec{Ports: []smi.PortSpec{{Port: 0, Kind: kind, Type: smi.Float, BufferElems: buf}}})
	if err != nil {
		return CollectiveResult{}, err
	}
	for r := 0; r < ranks; r++ {
		r := r
		c.OnRank(r, kind.String(), func(x *smi.Ctx) {
			comm, err := x.CommWorld().Sub(0, ranks)
			if err != nil {
				panic(err)
			}
			switch kind {
			case smi.Scatter:
				ch, err := x.OpenScatterChannel(elems, smi.Float, 0, 0, comm)
				if err != nil {
					panic(err)
				}
				if ch.Root() {
					for i := 0; i < elems*ranks; i++ {
						ch.Push(uint64(i))
					}
				}
				for i := 0; i < elems; i++ {
					ch.Pop()
				}
			case smi.Gather:
				ch, err := x.OpenGatherChannel(elems, smi.Float, 0, 0, comm)
				if err != nil {
					panic(err)
				}
				for i := 0; i < elems; i++ {
					ch.Push(uint64(i))
				}
				if ch.Root() {
					for i := 0; i < elems*ranks; i++ {
						ch.Pop()
					}
				}
			}
		})
	}
	st, err := c.Run()
	if err != nil {
		return CollectiveResult{}, err
	}
	return CollectiveResult{Elems: elems, Ranks: ranks, Cycles: st.Cycles, Micros: st.Micros, Net: st}, nil
}
