package bench

import (
	"fmt"

	"repro/internal/apps"
	smi "repro/internal/core"
	"repro/internal/hostcomm"
	"repro/internal/routing"
	"repro/internal/topology"
	"repro/internal/transport"
)

func init() {
	register("ablate-r", "Ablation: polling factor R vs bandwidth and injection", ablateR)
	register("ablate-credit", "Ablation: Reduce flow-control tile size C", ablateCredit)
	register("ablate-routing", "Ablation: shortest-path vs up*/down* routing", ablateRouting)
	register("ablate-buffer", "Ablation: endpoint buffer size (asynchronicity degree k)", ablateBuffer)
	register("ablate-flowcontrol", "Ablation: eager vs credit-based point-to-point flow control", ablateFlowControl)
	register("ablate-tree", "Ablation: linear vs binomial-tree collectives", ablateTree)
	register("ablate-arbiter", "Ablation: round-robin poller vs skip-idle arbiter", ablateArbiter)
	register("ablate-switching", "Ablation: packet switching vs circuit switching", ablateSwitching)
	register("ext-scattergather", "Extension: Scatter/Gather timing (collectives the paper defines but does not evaluate)", extScatterGather)
}

// ablateR sweeps the CK polling factor and reports both the dense-stream
// bandwidth and the injection latency: higher R favors a single busy
// connection, lower R favors fairness across many (§4.3).
func ablateR(Options) (*Report, error) {
	topo, err := topology.Bus(8)
	if err != nil {
		return nil, err
	}
	elems := 200_000
	msgs := 4000
	r := &Report{
		ID:     "ablate-r",
		Title:  "Polling factor R: single-stream bandwidth vs injection latency",
		Header: []string{"R", "bandwidth (Gbit/s)", "injection (cycles/msg)"},
		Notes: []string{
			"higher R lets a CK burst from one busy input (bandwidth up) at the cost of",
			"per-connection latency when many inputs compete; packet switching spends 4 of",
			"32 bytes on headers, so payload efficiency caps at 87.5% regardless of R",
		},
	}
	for _, rr := range []int{1, 2, 4, 8, 16, 32} {
		cfg := apps.NetConfig{Topology: topo, Transport: transport.Config{R: rr}}
		bw, err := apps.Bandwidth(cfg, 0, 1, elems)
		if err != nil {
			return nil, err
		}
		inj, err := apps.Injection(cfg, msgs)
		if err != nil {
			return nil, err
		}
		r.Rows = append(r.Rows, []string{fmt.Sprint(rr), f2(bw.Gbps), f2(inj.CyclesPerMsg)})
		r.metric(fmt.Sprintf("gbps_r%d", rr), bw.Gbps)
	}
	return r, nil
}

// ablateCredit sweeps the Reduce credit tile size C: larger tiles
// amortize the credit round trip but cost proportional on-chip buffer at
// the root (§4.4).
func ablateCredit(Options) (*Report, error) {
	topo, err := topology.Torus2D(2, 4)
	if err != nil {
		return nil, err
	}
	cfg := apps.NetConfig{Topology: topo, Transport: transport.DefaultConfig()}
	elems := 65536
	r := &Report{
		ID:     "ablate-credit",
		Title:  fmt.Sprintf("Reduce time vs credit tile size C (%d float32 elements, 8 ranks)", elems),
		Header: []string{"C (elems)", "time (us)", "root buffer (bytes)"},
		Notes: []string{
			"the tile size trades root buffer space against credit round-trip stalls;",
			"beyond ~4K elements the reduction is ingest-bound and larger tiles stop helping",
		},
	}
	for _, c := range []int{64, 256, 1024, 4096, 16384} {
		res, err := apps.ReduceTime(cfg, 8, elems, c)
		if err != nil {
			return nil, err
		}
		r.Rows = append(r.Rows, []string{fmt.Sprint(c), f1(res.Micros), fmt.Sprint(c * 4)})
		r.metric(fmt.Sprintf("us_c%d", c), res.Micros)
	}
	return r, nil
}

// ablateRouting compares the two route generators on the torus: path
// dilation and end-to-end latency, plus the deadlock-freedom verdict of
// the channel dependency graph.
func ablateRouting(Options) (*Report, error) {
	topo, err := topology.Torus2D(2, 4)
	if err != nil {
		return nil, err
	}
	rounds := 8
	r := &Report{
		ID:     "ablate-routing",
		Title:  "Routing policy on the 2x4 torus",
		Header: []string{"policy", "avg hops", "max hops", "deadlock-free (CDG)", "0->5 latency (us)"},
		Notes: []string{
			"on the 2x4 torus the wrap-around shortest paths create a channel dependency",
			"cycle (a potential deadlock); up*/down* provably breaks it, here without any",
			"path dilation - the safe policy costs nothing on this wiring",
		},
	}
	for _, pol := range []routing.Policy{routing.ShortestPath, routing.UpDown} {
		routes, err := routing.Compute(topo, pol)
		if err != nil {
			return nil, err
		}
		sum, max, pairs := 0, 0, 0
		for s := 0; s < topo.Devices; s++ {
			for d := 0; d < topo.Devices; d++ {
				if s == d {
					continue
				}
				h := routes.Hops(s, d)
				sum += h
				pairs++
				if h > max {
					max = h
				}
			}
		}
		verdict := "yes"
		if routing.VerifyDeadlockFree(routes) != nil {
			verdict = "NO"
		}
		pp, err := apps.PingPong(apps.NetConfig{
			Topology: topo, Transport: transport.DefaultConfig(), RoutingPolicy: pol,
		}, 0, 5, rounds)
		if err != nil {
			return nil, err
		}
		r.Rows = append(r.Rows, []string{
			pol.String(), f2(float64(sum) / float64(pairs)), fmt.Sprint(max), verdict, f3(pp.LatencyUs),
		})
	}
	return r, nil
}

// ablateBuffer sweeps the endpoint buffer (the channel's asynchronicity
// degree k, §3.3) against a bursty consumer that pauses periodically:
// "by increasing the buffer size, a sending rank can commit more data to
// the network while continuing computations" (§4.2). With small k every
// consumer pause backpressures the sender; once k covers a pause,
// throughput recovers to the steady rate.
func ablateBuffer(Options) (*Report, error) {
	topo, err := topology.Bus(2)
	if err != nil {
		return nil, err
	}
	elems := 100_000
	const pauseEvery, pauseCycles = 512, 512
	r := &Report{
		ID: "ablate-buffer",
		Title: fmt.Sprintf("Completion vs endpoint buffer size (%d int32 elements, consumer pauses %d cycles every %d elements)",
			elems, pauseCycles, pauseEvery),
		Header: []string{"k (elems)", "sender done (cycles)", "relative"},
		Notes: []string{
			"k is the channel's asynchronicity degree: the sender may run ahead of the",
			"receiver by up to k elements; a larger buffer lets the sending rank commit",
			"its message and return to computation sooner (paper SS4.2)",
		},
	}
	var base int64
	for _, k := range []int{7, 112, 448, 1792, 7168} {
		cycles, err := burstyTransfer(topo, k, elems, pauseEvery, pauseCycles)
		if err != nil {
			return nil, err
		}
		if base == 0 {
			base = cycles
		}
		r.Rows = append(r.Rows, []string{fmt.Sprint(k), fmt.Sprint(cycles), f2(float64(cycles) / float64(base))})
		r.metric(fmt.Sprintf("cycles_k%d", k), float64(cycles))
	}
	return r, nil
}

// burstyTransfer streams elems integers to a consumer that sleeps
// pauseCycles every pauseEvery elements and returns the cycle at which
// the sender finished committing the message.
func burstyTransfer(topo *topology.Topology, k, elems, pauseEvery, pauseCycles int) (int64, error) {
	c, err := smi.NewCluster(smi.Config{
		Topology: topo,
		Program: smi.ProgramSpec{Ports: []smi.PortSpec{
			{Port: 0, Type: smi.Int, VecWidth: 8, BufferElems: k},
		}},
	})
	if err != nil {
		return 0, err
	}
	var senderDone int64
	c.OnRank(0, "source", func(x *smi.Ctx) {
		ch, err := x.OpenSendChannel(elems, smi.Int, 1, 0, x.CommWorld())
		if err != nil {
			panic(err)
		}
		for i := 0; i < elems; i++ {
			smi.Push(ch, int32(i))
		}
		senderDone = x.Now()
	})
	c.OnRank(1, "bursty-sink", func(x *smi.Ctx) {
		ch, err := x.OpenRecvChannel(elems, smi.Int, 0, 0, x.CommWorld())
		if err != nil {
			panic(err)
		}
		for i := 0; i < elems; i++ {
			smi.Pop[int32](ch)
			if (i+1)%pauseEvery == 0 {
				x.Sleep(int64(pauseCycles))
			}
		}
	})
	if _, err := c.Run(); err != nil {
		return 0, err
	}
	return senderDone, nil
}

// ablateFlowControl reproduces the motivating scenario of §3.3: a bulk
// message whose buffer is far smaller than the message shares one
// CKS/CKR pair with a latency-sensitive control channel. Under the eager
// protocol the bulk stream jams the shared transport FIFOs (with a small
// buffer the run deadlocks); under credit-based flow control the sender
// never commits more than the receiver can buffer, and the control
// exchange stays fast.
func ablateFlowControl(Options) (*Report, error) {
	bulk := 20000
	r := &Report{
		ID:     "ablate-flowcontrol",
		Title:  fmt.Sprintf("Shared-transport interference: %d-element bulk message + 4-element control exchange", bulk),
		Header: []string{"protocol", "buffer (elems)", "outcome", "control done (cycles)", "bulk done (cycles)"},
		Notes: []string{
			"paper SS3.3: with buffers smaller than the message, 'a transmission protocol",
			"with credit-based flow control must be used ... to guarantee that the",
			"communication occurring on a transient channel will not block the",
			"transmission of other streaming messages'",
		},
	}
	for _, cfg := range []struct {
		label  string
		mode   smi.Mode
		buffer int
	}{
		{"eager", smi.ModePacket, 28},
		{"eager", smi.ModePacket, bulk},
		{"credited", smi.ModeCredited, 28},
		{"credited", smi.ModeCredited, 448},
	} {
		ctl, bulkDone, err := contendedTransfer(cfg.mode, cfg.buffer, bulk)
		outcome := "ok"
		if err != nil {
			outcome = "DEADLOCK"
		}
		row := []string{cfg.label, fmt.Sprint(cfg.buffer), outcome, "-", "-"}
		if err == nil {
			row[3] = fmt.Sprint(ctl)
			row[4] = fmt.Sprint(bulkDone)
		}
		r.Rows = append(r.Rows, row)
	}
	return r, nil
}

// contendedTransfer runs the shared-pair bulk + control scenario and
// returns the completion cycles of the control exchange and of the bulk
// message.
func contendedTransfer(mode smi.Mode, buffer, bulk int) (ctlDone, bulkDone int64, err error) {
	topo, err := topology.Bus(2)
	if err != nil {
		return 0, 0, err
	}
	c, err := smi.NewCluster(smi.Config{
		Topology: topo,
		Program: smi.ProgramSpec{Ports: []smi.PortSpec{
			{Port: 0, Type: smi.Int, Mode: mode, BufferElems: buffer, Iface: 0, PinIface: true},
			{Port: 1, Type: smi.Int, BufferElems: 28, Iface: 0, PinIface: true},
		}},
		MaxCycles: 50_000_000,
	})
	if err != nil {
		return 0, 0, err
	}
	c.OnRank(0, "bulk", func(x *smi.Ctx) {
		ch, err := x.OpenSendChannel(bulk, smi.Int, 1, 0, x.CommWorld())
		if err != nil {
			panic(err)
		}
		for i := 0; i < bulk; i++ {
			smi.Push(ch, int32(i))
		}
	})
	c.OnRank(0, "ctl", func(x *smi.Ctx) {
		x.Sleep(2000)
		ch, err := x.OpenSendChannel(4, smi.Int, 1, 1, x.CommWorld())
		if err != nil {
			panic(err)
		}
		for i := 0; i < 4; i++ {
			smi.Push(ch, int32(i))
		}
	})
	c.OnRank(1, "consumer", func(x *smi.Ctx) {
		ctl, err := x.OpenRecvChannel(4, smi.Int, 0, 1, x.CommWorld())
		if err != nil {
			panic(err)
		}
		for i := 0; i < 4; i++ {
			smi.Pop[int32](ctl)
		}
		ctlDone = x.Now()
		bc, err := x.OpenRecvChannel(bulk, smi.Int, 0, 0, x.CommWorld())
		if err != nil {
			panic(err)
		}
		for i := 0; i < bulk; i++ {
			smi.Pop[int32](bc)
		}
		bulkDone = x.Now()
	})
	_, err = c.Run()
	return ctlDone, bulkDone, err
}

// ablateTree compares the paper's linear collective scheme against the
// binomial-tree support kernels (the extension the paper names but does
// not implement). The tree bounds each node's fan-out/fan-in by
// log2(ranks), relieving the root congestion that makes the linear
// Reduce lose to the host baseline at large sizes (§5.3.4).
func ablateTree(Options) (*Report, error) {
	topo, err := topology.Torus2D(2, 4)
	if err != nil {
		return nil, err
	}
	elems := 65536
	r := &Report{
		ID:     "ablate-tree",
		Title:  fmt.Sprintf("Collective scheme comparison (%d float32 elements, 8 ranks, torus)", elems),
		Header: []string{"collective", "linear (us)", "tree (us)", "tree speedup"},
		Notes: []string{
			"with 8 ranks the root touches 7 streams under the linear scheme but only",
			"log2(8)=3 under the binomial tree; inner nodes combine/replicate in parallel",
		},
	}
	timeCollective := func(kind smi.PortKind, tree bool) (float64, error) {
		c, err := smi.NewCluster(smi.Config{
			Topology: topo,
			Program: smi.ProgramSpec{Ports: []smi.PortSpec{{
				Port: 0, Kind: kind, Type: smi.Float, ReduceOp: smi.Add,
				Tree: tree, BufferElems: 512,
			}}},
			Transport: transport.DefaultConfig(),
		})
		if err != nil {
			return 0, err
		}
		c.SPMD("coll", func(x *smi.Ctx) {
			switch kind {
			case smi.Bcast:
				ch, err := x.OpenBcastChannel(elems, smi.Float, 0, 0, x.CommWorld())
				if err != nil {
					panic(err)
				}
				for i := 0; i < elems; i++ {
					ch.BcastFloat(float32(i))
				}
			case smi.Reduce:
				ch, err := x.OpenReduceChannel(elems, smi.Float, smi.Add, 0, 0, x.CommWorld())
				if err != nil {
					panic(err)
				}
				for i := 0; i < elems; i++ {
					ch.ReduceFloat(1)
				}
			}
		})
		st, err := c.Run()
		if err != nil {
			return 0, err
		}
		return st.Micros, nil
	}
	for _, kind := range []smi.PortKind{smi.Bcast, smi.Reduce} {
		linear, err := timeCollective(kind, false)
		if err != nil {
			return nil, fmt.Errorf("linear %v: %w", kind, err)
		}
		tree, err := timeCollective(kind, true)
		if err != nil {
			return nil, fmt.Errorf("tree %v: %w", kind, err)
		}
		r.Rows = append(r.Rows, []string{kind.String(), f1(linear), f1(tree), f2(linear / tree)})
		r.metric("speedup_"+kind.String(), linear/tree)
	}
	return r, nil
}

// ablateArbiter compares the two CK input arbiters: the literal
// round-robin poller (which reproduces Table 4's injection numbers) and
// a priority encoder that skips idle inputs (which reproduces Fig 9's
// 91%-of-peak bandwidth). The published RTL behaves between the two;
// this is deviation D1 of EXPERIMENTS.md made explicit.
func ablateArbiter(Options) (*Report, error) {
	topo, err := topology.Bus(8)
	if err != nil {
		return nil, err
	}
	elems := 400_000
	msgs := 4000
	r := &Report{
		ID:     "ablate-arbiter",
		Title:  "CK input arbiter: bandwidth vs injection trade-off (R=8)",
		Header: []string{"arbiter", "bandwidth (Gbit/s)", "% of 35 payload peak", "injection (cycles/msg)"},
		Notes: []string{
			"the round-robin poller reproduces Table 4 exactly; skip-idle reproduces the",
			"paper's 91%-of-peak Fig 9 bandwidth; the published RTL sits between the two",
		},
	}
	for _, arb := range []struct {
		label string
		kind  transport.Arbiter
	}{
		{"round-robin poll", transport.ArbiterRoundRobin},
		{"skip-idle", transport.ArbiterSkipIdle},
	} {
		cfg := apps.NetConfig{Topology: topo, Transport: transport.Config{R: 8, Arbiter: arb.kind}}
		bw, err := apps.Bandwidth(cfg, 0, 1, elems)
		if err != nil {
			return nil, err
		}
		inj, err := apps.Injection(cfg, msgs)
		if err != nil {
			return nil, err
		}
		r.Rows = append(r.Rows, []string{
			arb.label, f2(bw.Gbps), f1(100 * bw.Gbps / 35.0), f2(inj.CyclesPerMsg),
		})
		r.metric("gbps_"+arb.label, bw.Gbps)
	}
	return r, nil
}

// ablateSwitching quantifies the §4.2 design decision. Packet switching
// spends 4 of every 32 bytes on headers but multiplexes freely; circuit
// switching sends one meta-information packet then headerless payload,
// recovering the full wire for data at the price of locking every
// communication kernel on the path until the message completes.
func ablateSwitching(Options) (*Report, error) {
	bulk := 56000
	r := &Report{
		ID:     "ablate-switching",
		Title:  fmt.Sprintf("Switching mode: %d-element bulk transfer + concurrent 4-element message", bulk),
		Header: []string{"mode", "bulk payload (Gbit/s)", "concurrent msg done (cycles)"},
		Notes: []string{
			"circuit payload packets use all 32 wire bytes (40 Gbit/s ceiling vs 35), but",
			"the concurrent message waits for the whole circuit; the paper chose packet",
			"switching because it can 'easily multiplex different channels, avoiding",
			"temporary stalls due to the transmission of long messages'",
		},
	}
	for _, mode := range []struct {
		label string
		mode  smi.Mode
	}{
		{"packet switching", smi.ModePacket},
		{"circuit switching", smi.ModeCircuit},
	} {
		gbps, ctl, err := switchingRun(mode.mode, bulk)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", mode.label, err)
		}
		r.Rows = append(r.Rows, []string{mode.label, f2(gbps), fmt.Sprint(ctl)})
		r.metric("gbps_"+mode.label, gbps)
	}
	return r, nil
}

// switchingRun measures a saturated bulk transfer's payload bandwidth
// and the completion cycle of a small concurrent message sharing the
// same CKS/CKR pair.
func switchingRun(mode smi.Mode, bulk int) (gbps float64, ctlDone int64, err error) {
	topo, err := topology.Bus(2)
	if err != nil {
		return 0, 0, err
	}
	c, err := smi.NewCluster(smi.Config{
		Topology: topo,
		Program: smi.ProgramSpec{Ports: []smi.PortSpec{
			{Port: 0, Type: smi.Int, Mode: mode, VecWidth: 8, BufferElems: 4096, Iface: 0, PinIface: true},
			{Port: 1, Type: smi.Int, Iface: 0, PinIface: true},
		}},
		Transport: transport.DefaultConfig(),
	})
	if err != nil {
		return 0, 0, err
	}
	c.OnRank(0, "bulk", func(x *smi.Ctx) {
		ch, err := x.OpenSendChannel(bulk, smi.Int, 1, 0, x.CommWorld())
		if err != nil {
			panic(err)
		}
		for i := 0; i < bulk; i++ {
			smi.Push(ch, int32(i))
		}
	})
	c.OnRank(0, "ctl", func(x *smi.Ctx) {
		x.Sleep(200)
		ch, err := x.OpenSendChannel(4, smi.Int, 1, 1, x.CommWorld())
		if err != nil {
			panic(err)
		}
		for i := 0; i < 4; i++ {
			smi.Push(ch, int32(i))
		}
	})
	var bulkDone int64
	c.OnRank(1, "rbulk", func(x *smi.Ctx) {
		ch, err := x.OpenRecvChannel(bulk, smi.Int, 0, 0, x.CommWorld())
		if err != nil {
			panic(err)
		}
		for i := 0; i < bulk; i++ {
			smi.Pop[int32](ch)
		}
		bulkDone = x.Now()
	})
	c.OnRank(1, "rctl", func(x *smi.Ctx) {
		ch, err := x.OpenRecvChannel(4, smi.Int, 0, 1, x.CommWorld())
		if err != nil {
			panic(err)
		}
		for i := 0; i < 4; i++ {
			smi.Pop[int32](ch)
		}
		ctlDone = x.Now()
	})
	if _, err := c.Run(); err != nil {
		return 0, 0, err
	}
	bits := float64(bulk) * 4 * 8
	gbps = bits / (c.Clock().Micros(bulkDone) * 1e3)
	return gbps, ctlDone, nil
}

// extScatterGather times the two collectives SMI specifies (§3.2) whose
// performance the paper leaves unevaluated, against the host baseline,
// completing the collective coverage of Figs 10-11.
func extScatterGather(Options) (*Report, error) {
	topo, err := topology.Torus2D(2, 4)
	if err != nil {
		return nil, err
	}
	cfg := apps.NetConfig{Topology: topo, Transport: transport.DefaultConfig()}
	host := hostcomm.Default()
	sizes := []int{16, 1 << 10, 16 << 10}
	r := &Report{
		ID:     "ext-scattergather",
		Title:  "Scatter/Gather time [us] per rank chunk, 8 ranks, torus",
		Header: []string{"elems/rank", "SMI scatter", "SMI gather", "host scatter", "host gather"},
		Notes: []string{
			"both use the Fig 5 sequential per-rank protocol (rendezvous for scatter,",
			"grants for gather); like Bcast, SMI wins on rendezvous cost at small sizes",
		},
	}
	for _, elems := range sizes {
		sc, err := apps.ScatterTime(cfg, 8, elems)
		if err != nil {
			return nil, fmt.Errorf("scatter %d: %w", elems, err)
		}
		ga, err := apps.GatherTime(cfg, 8, elems)
		if err != nil {
			return nil, fmt.Errorf("gather %d: %w", elems, err)
		}
		r.Rows = append(r.Rows, []string{
			fmt.Sprint(elems), f1(sc.Micros), f1(ga.Micros),
			f1(host.ScatterUs(8, int64(elems)*4)), f1(host.GatherUs(8, int64(elems)*4)),
		})
	}
	return r, nil
}
