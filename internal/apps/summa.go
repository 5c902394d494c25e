package apps

import (
	"fmt"

	smi "repro/internal/core"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/transport"
)

// Summa is a distributed dense matrix multiply C = A x B built on SMI's
// streaming broadcast — the kind of collective-driven kernel the paper's
// Bcast support kernels target. It uses the 1-D SUMMA decomposition:
// rank j owns the block column j of A, B, and C; in step k, rank k
// broadcasts its block column of A while every rank multiplies it
// against the local block of B, accumulating its block column of C.
// Broadcast and computation overlap: elements stream into the multiply
// pipeline as they arrive.
type SummaConfig struct {
	// N is the matrix dimension (N x N); must be divisible by Ranks.
	N int
	// Ranks is the number of FPGAs (block columns).
	Ranks int
	// Tree selects tree-based broadcasts.
	Tree bool
	// Verify computes real values against a sequential reference.
	Verify bool
	// Topology overrides the interconnect (defaults to a bus).
	Topology *topology.Topology
	// MaxCycles optionally bounds the simulation.
	MaxCycles int64
	// Scheduler selects the simulator's scheduling mode (default
	// sim.SchedEvent); cycle counts are identical in all modes.
	Scheduler sim.SchedulerKind
	// Shards is the worker-slot count of sim.SchedShardAdaptive (see
	// smi.Config.Shards); 0 keeps the single-engine build.
	Shards int
	// Arbiter selects the CK input arbiter (default round-robin).
	Arbiter transport.Arbiter
}

// SummaResult reports one distributed matrix multiply.
type SummaResult struct {
	Cycles int64
	Micros float64
	C      [][]float32 // assembled result when Verify
	Net    smi.Stats
}

// Deterministic synthetic inputs, exact in float32.
func summaA(i, j int) float32 { return float32((i*7+j*3)%5 - 2) }
func summaB(i, j int) float32 { return float32((i*11+j*13)%7 - 3) }

// SummaReference computes C = A x B sequentially.
func SummaReference(n int) [][]float32 {
	c := make([][]float32, n)
	for i := range c {
		c[i] = make([]float32, n)
		for j := 0; j < n; j++ {
			var acc float32
			for k := 0; k < n; k++ {
				acc += summaA(i, k) * summaB(k, j)
			}
			c[i][j] = acc
		}
	}
	return c
}

// Summa runs the distributed multiply and reports timing (and the
// assembled result under Verify).
func Summa(cfg SummaConfig) (SummaResult, error) {
	if cfg.Ranks < 2 {
		return SummaResult{}, fmt.Errorf("summa: need at least 2 ranks, got %d", cfg.Ranks)
	}
	if cfg.N%cfg.Ranks != 0 {
		return SummaResult{}, fmt.Errorf("summa: N=%d not divisible by %d ranks", cfg.N, cfg.Ranks)
	}
	topo := cfg.Topology
	if topo == nil {
		var err error
		topo, err = topology.Bus(cfg.Ranks)
		if err != nil {
			return SummaResult{}, err
		}
	}
	if topo.Devices < cfg.Ranks {
		return SummaResult{}, fmt.Errorf("summa: topology has %d devices, need %d", topo.Devices, cfg.Ranks)
	}
	c, err := smi.NewCluster(smi.Config{
		Topology: topo,
		Program: smi.ProgramSpec{Ports: []smi.PortSpec{
			{Port: 0, Kind: smi.Bcast, Type: smi.Float, Tree: cfg.Tree, BufferElems: 1024},
		}},
		Transport: transport.Config{Arbiter: cfg.Arbiter},
		MaxCycles: cfg.MaxCycles,
		Scheduler: cfg.Scheduler,
		Shards:    cfg.Shards,
	})
	if err != nil {
		return SummaResult{}, err
	}
	board := c.Board()
	w := cfg.N / cfg.Ranks // block column width
	res := SummaResult{}

	// Per-rank accumulators for the owned block column of C.
	acc := make([][][]float32, cfg.Ranks)
	if cfg.Verify {
		for r := range acc {
			acc[r] = make([][]float32, cfg.N)
			for i := range acc[r] {
				acc[r][i] = make([]float32, w)
			}
		}
	}

	// The multiply pipeline processes one broadcast element per cycle,
	// feeding a w-wide vector MAC array (the block column of B stays
	// on-chip): cycle cost = elements received. The broadcast overlaps
	// with this consumption, so each step costs about N*w cycles plus
	// the rendezvous.
	for r := 0; r < cfg.Ranks; r++ {
		r := r
		c.OnRank(r, "summa", func(x *smi.Ctx) {
			x.Sleep(int64(board.LaunchOverheadCycles))
			count := cfg.N * w // elements of one block column of A
			for k := 0; k < cfg.Ranks; k++ {
				ch, err := x.OpenBcastChannel(count, smi.Float, 0, k, x.CommWorld())
				if err != nil {
					panic(err)
				}
				// The owner streams its block column (row-major over the
				// block) while every rank folds it into the local MACs.
				for i := 0; i < cfg.N; i++ {
					for jj := 0; jj < w; jj++ {
						var v float32
						if ch.Root() {
							v = summaA(i, k*w+jj)
						}
						v = ch.BcastFloat(v)
						if cfg.Verify {
							// A[i][k*w+jj] contributes to C[i][*] via
							// B[k*w+jj][r*w..r*w+w-1] — a w-wide MAC per
							// element, one element per cycle.
							row := acc[r][i]
							bRow := k*w + jj
							for jc := 0; jc < w; jc++ {
								row[jc] += v * summaB(bRow, r*w+jc)
							}
						}
					}
				}
			}
		})
	}
	stats, err := c.Run()
	if err != nil {
		return SummaResult{}, err
	}
	res.Cycles, res.Micros, res.Net = stats.Cycles, stats.Micros, stats
	if cfg.Verify {
		res.C = make([][]float32, cfg.N)
		for i := range res.C {
			res.C[i] = make([]float32, cfg.N)
			for r := 0; r < cfg.Ranks; r++ {
				copy(res.C[i][r*w:(r+1)*w], acc[r][i])
			}
		}
	}
	return res, nil
}
