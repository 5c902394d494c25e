package apps

import (
	"fmt"

	smi "repro/internal/core"
	"repro/internal/fault"
	"repro/internal/packet"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/transport"
)

// Stencil (§5.4.2) runs a 4-point 2D stencil over an N x N grid for a
// number of timesteps, decomposed spatially over RanksX x RanksY FPGAs.
// Each rank sweeps its block with perfect on-chip reuse, reading the
// previous timestep from memory at the rate its DDR banks allow, and
// exchanges halo regions with its four neighbors through SMI channels
// opened per timestep on distinct ports (paper Listing 3 and Fig 14).
// Values outside the global grid are fixed at zero (Dirichlet boundary).
//
// Each rank runs one compute kernel and four independent halo-sender
// kernels; the senders stream boundary data of the previous timestep
// while the sweep consumes remote halos, overlapping communication with
// computation exactly as the paper's inequality analysis assumes.
type StencilConfig struct {
	N         int // global grid edge (N x N)
	Timesteps int
	RanksX    int // rank grid rows
	RanksY    int // rank grid columns
	Banks     int // DDR banks used per FPGA (1..4)
	// Verify computes real values for correctness checks; large runs set
	// it false to model timing only.
	Verify bool
	// Topology overrides the interconnect (must have at least
	// RanksX*RanksY devices). Defaults to a 2D torus (or a bus when one
	// rank dimension is 1).
	Topology  *topology.Topology
	MaxCycles int64
	// RoutingPolicy selects the route generator (use routing.UpDown with
	// fault specs that kill cables: failover regenerates up*/down* routes).
	RoutingPolicy routing.Policy
	// Faults attaches a fault-injection schedule to the links.
	Faults *fault.Spec
	// Scheduler selects the simulator's scheduling mode (default
	// sim.SchedEvent); cycle counts are identical in all modes.
	Scheduler sim.SchedulerKind
	// Shards is the worker-slot count of sim.SchedShardAdaptive (see
	// smi.Config.Shards); 0 keeps the single-engine build.
	Shards int
	// Routes supplies precomputed routing tables (see smi.Config.Routes).
	Routes *routing.Routes
	// Arbiter selects the CK input arbiter (default round-robin).
	Arbiter transport.Arbiter
	// Progress/ProgressEvery install a cycle-progress observer (see
	// smi.Config.Progress).
	Progress      func(cycle int64)
	ProgressEvery int64
}

// StencilResult reports one stencil execution.
type StencilResult struct {
	Cycles     int64
	Micros     float64
	NsPerPoint float64     // time per grid point per timestep
	Grid       [][]float32 // assembled final grid when cfg.Verify
	Net        smi.Stats
}

// Halo ports: the direction names the side the halo arrives from.
const (
	portFromNorth = 1
	portFromSouth = 2
	portFromWest  = 3
	portFromEast  = 4
)

// stencilInit is the deterministic initial condition (exact in float32).
func stencilInit(i, j int) float32 { return float32((i*13+j*7)%17 - 8) }

// StencilReference computes the stencil sequentially.
func StencilReference(n, timesteps int) [][]float32 {
	cur := make([][]float32, n)
	next := make([][]float32, n)
	for i := range cur {
		cur[i] = make([]float32, n)
		next[i] = make([]float32, n)
		for j := range cur[i] {
			cur[i][j] = stencilInit(i, j)
		}
	}
	at := func(g [][]float32, i, j int) float32 {
		if i < 0 || i >= n || j < 0 || j >= n {
			return 0
		}
		return g[i][j]
	}
	for t := 0; t < timesteps; t++ {
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				next[i][j] = 0.25 * (at(cur, i-1, j) + at(cur, i+1, j) + at(cur, i, j-1) + at(cur, i, j+1))
			}
		}
		cur, next = next, cur
	}
	return cur
}

// stencilRank is the mutable per-rank state shared between the compute
// kernel and its halo senders (they always read the previous-timestep
// array, which only swaps after all five kernels synchronize).
type stencilRank struct {
	cur, next [][]float32
}

// Stencil runs the distributed stencil and reports timing (and the
// final grid under Verify).
func Stencil(cfg StencilConfig) (StencilResult, error) {
	if cfg.RanksX < 1 || cfg.RanksY < 1 {
		return StencilResult{}, fmt.Errorf("stencil: invalid rank grid %dx%d", cfg.RanksX, cfg.RanksY)
	}
	if cfg.N%cfg.RanksX != 0 || cfg.N%cfg.RanksY != 0 {
		return StencilResult{}, fmt.Errorf("stencil: grid %d not divisible by rank grid %dx%d", cfg.N, cfg.RanksX, cfg.RanksY)
	}
	ranks := cfg.RanksX * cfg.RanksY
	topo := cfg.Topology
	if topo == nil {
		var err error
		switch {
		case ranks == 1:
			topo, err = topology.Bus(2)
		case cfg.RanksX >= 2 && cfg.RanksY >= 2:
			topo, err = topology.Torus2D(cfg.RanksX, cfg.RanksY)
		default:
			topo, err = topology.Bus(ranks)
		}
		if err != nil {
			return StencilResult{}, err
		}
	}
	if topo.Devices < ranks {
		return StencilResult{}, fmt.Errorf("stencil: topology has %d devices, need %d", topo.Devices, ranks)
	}

	H := cfg.N / cfg.RanksX // block rows
	W := cfg.N / cfg.RanksY // block cols
	// Halo channels use the eager protocol: the endpoint buffer (the
	// channel's asynchronicity degree k) covers the worst-case
	// outstanding data, so a sender commits its halo to the network and
	// proceeds while the receiving sweep consumes it at its own pace
	// (SS3.3). The go/done synchronization lets a neighbor run at most
	// one timestep ahead, so up to two halos can be in flight per edge;
	// buffering both keeps application backpressure out of the shared
	// transport entirely — a CKR is never head-of-line blocked by a full
	// endpoint, which would otherwise couple unrelated flows and can
	// deadlock when a failover reroutes transit traffic through this
	// rank (message-dependent deadlock).
	c, err := smi.NewCluster(smi.Config{
		Topology: topo,
		Program: smi.ProgramSpec{Ports: []smi.PortSpec{
			{Port: portFromNorth, Type: smi.Float, BufferElems: 2*W + 8},
			{Port: portFromSouth, Type: smi.Float, BufferElems: 2*W + 8},
			{Port: portFromWest, Type: smi.Float, BufferElems: 2*H + 8},
			{Port: portFromEast, Type: smi.Float, BufferElems: 2*H + 8},
		}},
		Transport:     transport.Config{Arbiter: cfg.Arbiter},
		MaxCycles:     cfg.MaxCycles,
		RoutingPolicy: cfg.RoutingPolicy,
		Routes:        cfg.Routes,
		Faults:        cfg.Faults,
		Scheduler:     cfg.Scheduler,
		Shards:        cfg.Shards,
		Progress:      cfg.Progress,
		ProgressEvery: cfg.ProgressEvery,
	})
	if err != nil {
		return StencilResult{}, err
	}
	board := c.Board()
	banks := cfg.Banks
	if banks <= 0 {
		banks = board.MemBanks
	}
	epc := board.ElemsPerCycle(4, banks) // stencil elements per cycle
	rowCycles := int64((W+epc-1)/epc) + int64(board.RowOverheadCycles)

	res := StencilResult{}
	states := make([]*stencilRank, ranks)
	for r := range states {
		st := &stencilRank{}
		if cfg.Verify {
			st.cur = make([][]float32, H)
			st.next = make([][]float32, H)
			rx, ry := r/cfg.RanksY, r%cfg.RanksY
			for i := 0; i < H; i++ {
				st.cur[i] = make([]float32, W)
				st.next[i] = make([]float32, W)
				for j := 0; j < W; j++ {
					st.cur[i][j] = stencilInit(rx*H+i, ry*W+j)
				}
			}
		}
		states[r] = st
	}

	type sender struct {
		name     string
		neighbor int // destination rank
		port     int // destination port
		count    int
		elem     func(st *stencilRank, k int) float32
	}
	for r := 0; r < ranks; r++ {
		r := r
		rx, ry := r/cfg.RanksY, r%cfg.RanksY
		st := states[r]
		var senders []sender
		hasN, hasS, hasW, hasE := rx > 0, rx < cfg.RanksX-1, ry > 0, ry < cfg.RanksY-1
		if hasS {
			senders = append(senders, sender{"southward", r + cfg.RanksY, portFromNorth, W,
				func(st *stencilRank, k int) float32 {
					if st.cur == nil {
						return 0
					}
					return st.cur[H-1][k]
				}})
		}
		if hasN {
			senders = append(senders, sender{"northward", r - cfg.RanksY, portFromSouth, W,
				func(st *stencilRank, k int) float32 {
					if st.cur == nil {
						return 0
					}
					return st.cur[0][k]
				}})
		}
		if hasE {
			senders = append(senders, sender{"eastward", r + 1, portFromWest, H,
				func(st *stencilRank, k int) float32 {
					if st.cur == nil {
						return 0
					}
					return st.cur[k][W-1]
				}})
		}
		if hasW {
			senders = append(senders, sender{"westward", r - 1, portFromEast, H,
				func(st *stencilRank, k int) float32 {
					if st.cur == nil {
						return 0
					}
					return st.cur[k][0]
				}})
		}

		// Per-sender synchronization tokens: "go" at timestep start,
		// "done" once the halo is fully committed to the network.
		goStreams := make([]*smi.Stream, len(senders))
		doneStreams := make([]*smi.Stream, len(senders))
		for si, sd := range senders {
			goStreams[si] = c.NewStreamOn(r, fmt.Sprintf("r%d.%s.go", r, sd.name), 1)
			doneStreams[si] = c.NewStreamOn(r, fmt.Sprintf("r%d.%s.done", r, sd.name), 1)
		}

		for si, sd := range senders {
			si, sd := si, sd
			c.OnRank(r, "send-"+sd.name, func(x *smi.Ctx) {
				halo := make([]float32, sd.count)
				for t := 0; t < cfg.Timesteps; t++ {
					x.PopStream(goStreams[si])
					ch, err := x.OpenSend(smi.ChannelOpts{Count: sd.count, Type: smi.Float, Dst: sd.neighbor, Port: sd.port})
					if err != nil {
						panic(err)
					}
					for k := range halo {
						halo[k] = sd.elem(st, k)
					}
					if _, err := smi.PushSlice(ch, halo); err != nil {
						panic(err)
					}
					x.PushStream(doneStreams[si], 1)
				}
			})
		}

		c.OnRank(r, "compute", func(x *smi.Ctx) {
			northRow := make([]float32, W)
			southRow := make([]float32, W)
			// One row of the sweep is one iteration of the pipelined loop:
			// pop the west and east halo elements, then sweep the row at
			// the memory rate, one vector per cycle (rowCycles).
			rowOps := make([]smi.LoopOp, 0, 3)
			westSlot, eastSlot := -1, -1
			if hasW {
				westSlot = len(rowOps)
				rowOps = append(rowOps, smi.LoopOp{})
			}
			if hasE {
				eastSlot = len(rowOps)
				rowOps = append(rowOps, smi.LoopOp{})
			}
			rowOps = append(rowOps, smi.LoopOp{Sleep: rowCycles})
			firstRow := 0 // row of the sweep's iteration 0
			row := func(k int, vals []uint64) {
				if !cfg.Verify {
					return
				}
				i := firstRow + k
				var westVal, eastVal float32
				if hasW {
					westVal = packet.BitsFloat(vals[westSlot])
				}
				if hasE {
					eastVal = packet.BitsFloat(vals[eastSlot])
				}
				cur, next := st.cur, st.next
				for j := 0; j < W; j++ {
					var up, down, left, right float32
					if i > 0 {
						up = cur[i-1][j]
					} else if hasN {
						up = northRow[j]
					}
					if i < H-1 {
						down = cur[i+1][j]
					} else if hasS {
						down = southRow[j]
					}
					if j > 0 {
						left = cur[i][j-1]
					} else if hasW {
						left = westVal
					}
					if j < W-1 {
						right = cur[i][j+1]
					} else if hasE {
						right = eastVal
					}
					next[i][j] = 0.25 * (up + down + left + right)
				}
			}
			sweep := func(from, to int) {
				firstRow = from
				if err := x.Loop(to-from, rowOps, row); err != nil {
					panic(err)
				}
			}
			x.Sleep(int64(board.LaunchOverheadCycles))
			for t := 0; t < cfg.Timesteps; t++ {
				for si := range senders {
					x.PushStream(goStreams[si], 1)
				}
				var chN, chS *smi.RecvChannel
				var err error
				if hasN {
					if chN, err = x.OpenRecv(smi.ChannelOpts{Count: W, Type: smi.Float, Src: r - cfg.RanksY, Port: portFromNorth}); err != nil {
						panic(err)
					}
				}
				if hasS {
					if chS, err = x.OpenRecv(smi.ChannelOpts{Count: W, Type: smi.Float, Src: r + cfg.RanksY, Port: portFromSouth}); err != nil {
						panic(err)
					}
				}
				if hasW {
					if rowOps[westSlot].Recv, err = x.OpenRecv(smi.ChannelOpts{Count: H, Type: smi.Float, Src: r - 1, Port: portFromWest}); err != nil {
						panic(err)
					}
				}
				if hasE {
					if rowOps[eastSlot].Recv, err = x.OpenRecv(smi.ChannelOpts{Count: H, Type: smi.Float, Src: r + 1, Port: portFromEast}); err != nil {
						panic(err)
					}
				}
				// The north halo is consumed before the first row, the
				// south halo before the last.
				if hasN {
					if _, err := smi.PopSlice(chN, northRow); err != nil {
						panic(err)
					}
				}
				sweep(0, H-1)
				if hasS {
					if _, err := smi.PopSlice(chS, southRow); err != nil {
						panic(err)
					}
				}
				sweep(H-1, H)
				for si := range senders {
					x.PopStream(doneStreams[si])
				}
				if cfg.Verify {
					st.cur, st.next = st.next, st.cur
				}
			}
		})
	}

	stats, err := c.Run()
	if err != nil {
		return StencilResult{}, err
	}
	res.Cycles, res.Micros = stats.Cycles, stats.Micros
	res.Net = stats
	res.NsPerPoint = stats.Micros * 1e3 / (float64(cfg.N) * float64(cfg.N) * float64(cfg.Timesteps))
	if cfg.Verify {
		res.Grid = make([][]float32, cfg.N)
		for i := range res.Grid {
			res.Grid[i] = make([]float32, cfg.N)
		}
		for r := 0; r < ranks; r++ {
			rx, ry := r/cfg.RanksY, r%cfg.RanksY
			for i := 0; i < H; i++ {
				copy(res.Grid[rx*H+i][ry*W:(ry+1)*W], states[r].cur[i])
			}
		}
	}
	return res, nil
}
