package workload

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"

	"repro/internal/apps"
	smi "repro/internal/core"
	"repro/internal/packet"
	"repro/internal/transport"
)

// digest accumulates an FNV-64a hash over a workload's observable
// outputs. Little-endian fixed-width encodings keep it platform-stable.
type digest struct{ h hash.Hash64 }

func newDigest() *digest { return &digest{h: fnv.New64a()} }

func (d *digest) i64(v int64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(v))
	d.h.Write(b[:])
}

func (d *digest) f32(v float32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], math.Float32bits(v))
	d.h.Write(b[:])
}

func (d *digest) grid(g [][]float32) {
	d.i64(int64(len(g)))
	for _, row := range g {
		for _, v := range row {
			d.f32(v)
		}
	}
}

func (d *digest) hex() string { return fmt.Sprintf("%016x", d.h.Sum64()) }

// netConfig translates Params into the shared microbenchmark config.
// Run has validated the knobs, so the parse errors below are unreachable
// from it; they are still returned for a Workload.Run called directly.
func netConfig(p Params) (apps.NetConfig, error) {
	topo := p.Topology
	if topo == nil {
		var err error
		if topo, err = DefaultTopology(p.Ranks); err != nil {
			return apps.NetConfig{}, err
		}
	}
	tc := transport.DefaultConfig()
	var err error
	if tc.Kind, err = transport.Parse(p.Transport); err != nil {
		return apps.NetConfig{}, fmt.Errorf("workload: %v", err)
	}
	if tc.Arbiter, err = transport.ParseArbiter(p.Arbiter); err != nil {
		return apps.NetConfig{}, fmt.Errorf("workload: %v", err)
	}
	mode, err := smi.ParseMode(p.Mode)
	if err != nil {
		return apps.NetConfig{}, fmt.Errorf("workload: %v", err)
	}
	return apps.NetConfig{
		Topology:      topo,
		Transport:     tc,
		RoutingPolicy: p.RoutingPolicy,
		Routes:        p.Routes,
		Mode:          mode,
		BufferElems:   p.BufferElems,
		StreamBatch:   p.StreamBatch,
		Faults:        p.Faults,
		Scheduler:     p.Scheduler,
		Shards:        p.Shards,
		MaxCycles:     p.MaxCycles,
		Progress:      p.Progress,
		ProgressEvery: p.ProgressEvery,
	}, nil
}

// Validate decides whether workload w can run with the rank count and
// the mode, buffer, batch, transport, arbiter and fault knobs of p — the
// one legality check smid's admission path and Run share, so a bad
// combination is rejected with the same words whether it arrives over
// HTTP or through the Go API, and never reaches a worker. A knob a
// workload would ignore is rejected rather than dropped: silently
// measuring the default machinery is the fallback the ablations exist to
// rule out. (The arbiter is accepted everywhere; it only reorders CK
// polling.)
func Validate(w Workload, p Params) error {
	if p.Ranks < w.MinRanks {
		return fmt.Errorf("workload: %s needs at least %d ranks, got %d", w.Name, w.MinRanks, p.Ranks)
	}
	if !w.SupportsModes && (p.Mode != "" || p.BufferElems != 0 || p.StreamBatch != 0) {
		return fmt.Errorf("workload: %s does not accept transfer-mode knobs (mode, buffer_elems, stream_batch)", w.Name)
	}
	mode, err := smi.ParseMode(p.Mode)
	if err != nil {
		return fmt.Errorf("workload: %v", err)
	}
	if p.BufferElems < 0 {
		return fmt.Errorf("workload: negative buffer_elems %d", p.BufferElems)
	}
	if p.StreamBatch < 0 || p.StreamBatch > packet.MaxStreamWords {
		return fmt.Errorf("workload: stream_batch %d outside [0, %d]", p.StreamBatch, packet.MaxStreamWords)
	}
	if p.StreamBatch != 0 && mode != smi.ModeStreaming {
		return fmt.Errorf("workload: stream_batch is only valid with mode \"streaming\", got mode %q", p.Mode)
	}
	kind, err := transport.Parse(p.Transport)
	if err != nil {
		return fmt.Errorf("workload: %v", err)
	}
	if _, err := transport.ParseArbiter(p.Arbiter); err != nil {
		return fmt.Errorf("workload: %v", err)
	}
	if kind != transport.SenderDrivenKind && !w.SupportsTransport {
		return fmt.Errorf("workload: %s does not accept a transport selection (got %q)", w.Name, p.Transport)
	}
	if p.Faults != nil && !p.Faults.Zero() && !w.SupportsFaults {
		return fmt.Errorf("workload: %s does not support fault injection", w.Name)
	}
	// Any fault spec, even an empty one, builds the reliable link layer.
	if err := smi.TransportCarries(kind, mode, p.Faults != nil); err != nil {
		return fmt.Errorf("workload: %v", err)
	}
	return nil
}

// result fills the normalized fields shared by every workload; taking
// the cluster's stats here means no workload can forget to report them.
func result(name string, p Params, size, steps int, cycles int64, micros float64, net smi.Stats) Result {
	return Result{
		Workload: name, Ranks: p.Ranks, Size: size, Steps: steps,
		Cycles: cycles, Micros: micros, Metrics: map[string]float64{}, Stats: net,
	}
}

func init() {
	Register(Workload{
		Name:              "bandwidth",
		Description:       "stream Size int32 elements from rank 0 to the last rank (§5.3.1); mode selects packet, credited, circuit, or streaming transfer",
		MinRanks:          2,
		DefaultSize:       16384,
		SupportsFaults:    true,
		SupportsRoutes:    true,
		SupportsModes:     true,
		SupportsTransport: true,
		Run: func(p Params) (Result, error) {
			cfg, err := netConfig(p)
			if err != nil {
				return Result{}, err
			}
			elems := p.Size
			res, err := apps.Bandwidth(cfg, 0, p.Ranks-1, elems)
			if err != nil {
				return Result{}, err
			}
			out := result("bandwidth", p, elems, 0, res.Cycles, res.Micros, res.Net)
			out.Metrics["gbps"] = res.Gbps
			out.Metrics["hops"] = float64(res.Hops)
			if cfg.Mode == smi.ModeStreaming {
				out.Metrics["stream_fragments"] = float64(res.Net.StreamFragments)
			}
			d := newDigest()
			d.i64(res.Bytes)
			d.i64(res.Cycles)
			d.i64(int64(res.Net.PacketsDelivered))
			out.OutputDigest = d.hex()
			return out, nil
		},
	})

	Register(Workload{
		Name:           "pingpong",
		Description:    "bounce a one-element message between rank 0 and the last rank for Size rounds (§5.3.2)",
		MinRanks:       2,
		DefaultSize:    64,
		SupportsFaults: true,
		SupportsRoutes: true,
		Run: func(p Params) (Result, error) {
			cfg, err := netConfig(p)
			if err != nil {
				return Result{}, err
			}
			rounds := p.Size
			res, err := apps.PingPong(cfg, 0, p.Ranks-1, rounds)
			if err != nil {
				return Result{}, err
			}
			out := result("pingpong", p, rounds, 0, res.Cycles, 0, res.Net)
			out.Metrics["latency_us"] = res.LatencyUs
			out.Metrics["hops"] = float64(res.Hops)
			d := newDigest()
			d.i64(int64(res.Rounds))
			d.i64(res.Cycles)
			out.OutputDigest = d.hex()
			return out, nil
		},
	})

	Register(Workload{
		Name:              "bcast",
		Description:       "broadcast Size float32 elements from rank 0 to every rank (Fig 10)",
		MinRanks:          2,
		DefaultSize:       4096,
		SupportsFaults:    true,
		SupportsRoutes:    true,
		SupportsTransport: true,
		Run: func(p Params) (Result, error) {
			cfg, err := netConfig(p)
			if err != nil {
				return Result{}, err
			}
			res, err := apps.BcastTime(cfg, p.Ranks, p.Size)
			if err != nil {
				return Result{}, err
			}
			out := result("bcast", p, p.Size, 0, res.Cycles, res.Micros, res.Net)
			d := newDigest()
			d.i64(int64(res.Elems))
			d.i64(res.Cycles)
			d.i64(int64(res.Net.PacketsDelivered))
			out.OutputDigest = d.hex()
			return out, nil
		},
	})

	Register(Workload{
		Name:           "reduce",
		Description:    "sum-reduce Size float32 elements from every rank to rank 0 (Fig 11)",
		MinRanks:       2,
		DefaultSize:    2048,
		SupportsFaults: true,
		SupportsRoutes: true,
		Run: func(p Params) (Result, error) {
			cfg, err := netConfig(p)
			if err != nil {
				return Result{}, err
			}
			res, err := apps.ReduceTime(cfg, p.Ranks, p.Size, 0)
			if err != nil {
				return Result{}, err
			}
			out := result("reduce", p, p.Size, 0, res.Cycles, res.Micros, res.Net)
			d := newDigest()
			d.i64(int64(res.Elems))
			d.i64(res.Cycles)
			out.OutputDigest = d.hex()
			return out, nil
		},
	})

	Register(Workload{
		Name:           "stencil",
		Description:    "4-point stencil over a Size × Size grid for Steps timesteps, ranks in a near-square grid (§5.4.2)",
		MinRanks:       1,
		DefaultSteps:   4,
		SupportsFaults: true,
		SupportsRoutes: true,
		Run: func(p Params) (Result, error) {
			rows, cols := Grid(p.Ranks)
			n := p.Size
			if n == 0 {
				n = 8 * cols
				if n%rows != 0 {
					n = 8 * rows * cols
				}
			}
			steps := p.Steps
			if steps == 0 {
				steps = 4
			}
			res, err := apps.Stencil(apps.StencilConfig{
				N: n, Timesteps: steps, RanksX: rows, RanksY: cols,
				Verify:        p.Verify,
				Topology:      p.Topology,
				RoutingPolicy: p.RoutingPolicy,
				Routes:        p.Routes,
				Faults:        p.Faults,
				Scheduler:     p.Scheduler,
				Shards:        p.Shards,
				MaxCycles:     p.MaxCycles,
				Progress:      p.Progress,
				ProgressEvery: p.ProgressEvery,
			})
			if err != nil {
				return Result{}, err
			}
			out := result("stencil", p, n, steps, res.Cycles, res.Micros, res.Net)
			out.Metrics["ns_per_point"] = res.NsPerPoint
			d := newDigest()
			d.i64(res.Cycles)
			d.i64(int64(res.Net.PacketsDelivered))
			if p.Verify {
				d.grid(res.Grid)
			}
			out.OutputDigest = d.hex()
			return out, nil
		},
	})

	Register(Workload{
		Name:              "incast",
		Description:       "converge one flow of Size int32 elements from each of ranks 1..N-1 onto rank 0, drained sequentially — the congestion pattern the receiver-driven transport ablates (§3.3)",
		MinRanks:          2,
		DefaultSize:       3000,
		SupportsFaults:    true,
		SupportsRoutes:    true,
		SupportsModes:     true,
		SupportsTransport: true,
		Run: func(p Params) (Result, error) {
			cfg, err := netConfig(p)
			if err != nil {
				return Result{}, err
			}
			if p.Mode == "" && cfg.Transport.Kind == transport.SenderDrivenKind {
				// Eager sender-driven incast deadlocks on sequential drain
				// (§3.3); the safe default baseline is credited. Receiver-
				// driven pacing keeps the eager default safe, so it stays
				// on ModePacket and an explicit mode always wins.
				cfg.Mode = smi.ModeCredited
			}
			senders := p.Ranks - 1
			res, err := apps.Incast(cfg, senders, p.Size)
			if err != nil {
				return Result{}, err
			}
			out := result("incast", p, p.Size, 0, res.Cycles, 0, res.Net)
			out.Metrics["tail_cycles"] = float64(res.TailCycles)
			out.Metrics["mean_cycles"] = res.MeanCycles
			out.Metrics["senders"] = float64(senders)
			d := newDigest()
			d.i64(res.Cycles)
			d.i64(int64(res.Net.PacketsDelivered))
			for _, fc := range res.FlowCycles {
				d.i64(fc)
			}
			out.OutputDigest = d.hex()
			return out, nil
		},
	})

	Register(Workload{
		Name:        "summa",
		Description: "1-D SUMMA dense matrix multiply of a Size × Size matrix over the ranks (§5.4)",
		MinRanks:    2,
		Run: func(p Params) (Result, error) {
			n := p.Size
			if n == 0 {
				n = 8 * p.Ranks
			}
			res, err := apps.Summa(apps.SummaConfig{
				N: n, Ranks: p.Ranks, Verify: p.Verify,
				Topology:  p.Topology,
				Scheduler: p.Scheduler,
				Shards:    p.Shards,
				MaxCycles: p.MaxCycles,
			})
			if err != nil {
				return Result{}, err
			}
			out := result("summa", p, n, 0, res.Cycles, res.Micros, res.Net)
			d := newDigest()
			d.i64(res.Cycles)
			if p.Verify {
				d.grid(res.C)
			}
			out.OutputDigest = d.hex()
			return out, nil
		},
	})
}

// Run resolves and executes a named workload, applying registered
// defaults and guarding unsupported parameters with errors instead of
// silent drops.
func Run(name string, p Params) (Result, error) {
	w, err := Get(name)
	if err != nil {
		return Result{}, err
	}
	if p.Size == 0 {
		p.Size = w.DefaultSize
	}
	if p.Steps == 0 {
		p.Steps = w.DefaultSteps
	}
	if p.Routes != nil && !w.SupportsRoutes {
		return Result{}, fmt.Errorf("workload: %s does not accept precomputed routes", w.Name)
	}
	if err := Validate(w, p); err != nil {
		return Result{}, err
	}
	return w.Run(p)
}
