package bench

import (
	"fmt"

	"repro/internal/apps"
	"repro/internal/hostcomm"
	"repro/internal/topology"
	"repro/internal/transport"
)

func init() {
	register("fig9", "Bandwidth vs message size: SMI (1/4/7 hops) vs MPI+OpenCL", fig9)
	register("fig10", "Bcast time vs message size: SMI torus/bus vs MPI+OpenCL", fig10)
	register("fig11", "Reduce time vs message size: SMI torus/bus vs MPI+OpenCL", fig11)
	register("fig13", "GESUMMV distributed speedup over single FPGA", fig13)
	register("fig15", "Stencil strong scaling across banks and FPGAs", fig15)
	register("fig16", "Stencil weak scaling: time per point vs grid size", fig16)
}

// fig9 sweeps the message size and reports the achieved bandwidth for
// SMI at three hop distances and for the host baseline. The sweep is
// capped at 16 MiB (the paper goes to 256 MiB, but both curves are flat
// well before 16 MiB).
func fig9(Options) (*Report, error) {
	topo, err := topology.Bus(8)
	if err != nil {
		return nil, err
	}
	cfg := apps.NetConfig{Topology: topo, Transport: transport.DefaultConfig()}
	sizes := []int64{64, 256, 1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20, 4 << 20, 16 << 20}
	host := hostcomm.Default()
	r := &Report{
		ID:     "fig9",
		Title:  "Bandwidth [Gbit/s] vs message size",
		Header: []string{"bytes", "SMI-1hop", "SMI-4hops", "SMI-7hops", "MPI+OpenCL", "QSFP peak", "PCIe peak"},
		Notes: []string{
			"payload peak is 35 Gbit/s (28 of 32 bytes per cycle); the paper reaches 91% of it,",
			"this model's round-robin poller sustains about two thirds (see EXPERIMENTS.md)",
		},
	}
	for _, bytes := range sizes {
		elems := int(bytes / 4)
		row := []string{human(bytes)}
		for _, dst := range []int{1, 4, 7} {
			res, err := apps.Bandwidth(cfg, 0, dst, elems)
			if err != nil {
				return nil, fmt.Errorf("fig9 %d bytes %d hops: %w", bytes, dst, err)
			}
			row = append(row, f2(res.Gbps))
		}
		row = append(row, f2(host.BandwidthGbps(bytes)), "35.00", "63.04")
		r.Rows = append(r.Rows, row)
		if bytes == sizes[len(sizes)-1] {
			r.metric("smi_1hop_gbps", parseF(row[1]))
			r.metric("host_gbps", host.BandwidthGbps(bytes))
		}
	}
	return r, nil
}

// collectiveSweep produces the Fig 10 / Fig 11 series: SMI on a torus
// and a bus with 4 and 8 ranks, plus the host baseline at 8 ranks.
func collectiveSweep(id, title string,
	smiTime func(cfg apps.NetConfig, ranks, elems int) (apps.CollectiveResult, error),
	hostTime func(n int, bytes int64) float64) (*Report, error) {

	torus, err := topology.Torus2D(2, 4)
	if err != nil {
		return nil, err
	}
	bus, err := topology.Bus(8)
	if err != nil {
		return nil, err
	}
	tcfg := apps.NetConfig{Topology: torus, Transport: transport.DefaultConfig()}
	bcfg := apps.NetConfig{Topology: bus, Transport: transport.DefaultConfig()}

	sizes := []int{1, 16, 256, 1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10}
	r := &Report{
		ID:     id,
		Title:  title,
		Header: []string{"elems", "SMI torus 8", "SMI torus 4", "SMI bus 8", "SMI bus 4", "MPI+OpenCL 8"},
		Notes: []string{
			"times in microseconds; paper sweeps 1..1M elements — the shape (SMI ~10x faster",
			"at small sizes, host competitive only at large Reduce sizes) is established here",
		},
	}
	for _, elems := range sizes {
		row := []string{fmt.Sprint(elems)}
		for _, series := range []struct {
			cfg   apps.NetConfig
			ranks int
		}{
			{tcfg, 8}, {tcfg, 4}, {bcfg, 8}, {bcfg, 4},
		} {
			res, err := smiTime(series.cfg, series.ranks, elems)
			if err != nil {
				return nil, fmt.Errorf("%s %d elems %d ranks: %w", id, elems, series.ranks, err)
			}
			row = append(row, f1(res.Micros))
		}
		row = append(row, f1(hostTime(8, int64(elems)*4)))
		r.Rows = append(r.Rows, row)
		if elems == sizes[len(sizes)-1] {
			r.metric("smi_torus8_large_us", parseF(row[1]))
			r.metric("host8_large_us", parseF(row[5]))
		}
	}
	return r, nil
}

func fig10(Options) (*Report, error) {
	return collectiveSweep("fig10", "Bcast time [us] vs message size [elements]",
		apps.BcastTime, hostcomm.Default().BcastUs)
}

func fig11(Options) (*Report, error) {
	return collectiveSweep("fig11", "Reduce time [us] vs message size [elements]",
		func(cfg apps.NetConfig, ranks, elems int) (apps.CollectiveResult, error) {
			return apps.ReduceTime(cfg, ranks, elems, 0)
		},
		hostcomm.Default().ReduceUs)
}

// fig13 reports GESUMMV speedups for square and rectangular matrices.
func fig13(Options) (*Report, error) {
	type shape struct {
		label      string
		rows, cols int
	}
	shapes := []shape{
		{"2048x2048", 2048, 2048},
		{"4096x4096", 4096, 4096},
		{"8192x8192", 8192, 8192},
		{"16384x16384", 16384, 16384},
		{"2048x4096", 2048, 4096},
		{"2048x8192", 2048, 8192},
		{"2048x16384", 2048, 16384},
		{"4096x2048", 4096, 2048},
		{"8192x2048", 8192, 2048},
		{"16384x2048", 16384, 2048},
	}
	r := &Report{
		ID:     "fig13",
		Title:  "GESUMMV speedup over single FPGA",
		Header: []string{"size", "single (ms)", "distributed (ms)", "speedup", "paper speedup"},
		Notes:  []string{"paper reports ~2x for all sizes (distributed doubles memory bandwidth)"},
	}
	for _, s := range shapes {
		sp, single, dist, err := apps.GesummvSpeedup(apps.GesummvConfig{
			Rows: s.rows, Cols: s.cols, Alpha: 1.5, Beta: -0.5,
		})
		if err != nil {
			return nil, fmt.Errorf("fig13 %s: %w", s.label, err)
		}
		r.Rows = append(r.Rows, []string{
			s.label, f3(single.Micros / 1e3), f3(dist.Micros / 1e3), f2(sp), "~2",
		})
		r.metric("speedup_"+s.label, sp)
	}
	return r, nil
}

// fig15 reports strong scaling of the stencil at a fixed 4096^2 domain
// (32 timesteps) across bank and FPGA counts.
func fig15(Options) (*Report, error) {
	n, steps := 4096, 32
	type config struct {
		label        string
		banks        int
		rx, ry       int
		paperSpeedup string
	}
	configs := []config{
		{"1 bank / 1 FPGA", 1, 1, 1, "1.0"},
		{"4 banks / 1 FPGA", 4, 1, 1, "3.5"},
		{"1 bank / 4 FPGAs", 1, 2, 2, "3.5"},
		{"4 banks / 4 FPGAs", 4, 2, 2, "12.3"},
		{"4 banks / 8 FPGAs", 4, 4, 2, "23.1"},
	}
	r := &Report{
		ID:     "fig15",
		Title:  fmt.Sprintf("Stencil strong scaling, %dx%d grid, %d timesteps", n, n, steps),
		Header: []string{"config", "time (ms)", "speedup", "paper speedup"},
	}
	var base int64
	for _, cfg := range configs {
		res, err := apps.Stencil(apps.StencilConfig{
			N: n, Timesteps: steps, RanksX: cfg.rx, RanksY: cfg.ry, Banks: cfg.banks,
		})
		if err != nil {
			return nil, fmt.Errorf("fig15 %s: %w", cfg.label, err)
		}
		if base == 0 {
			base = res.Cycles
		}
		speedup := float64(base) / float64(res.Cycles)
		r.Rows = append(r.Rows, []string{
			cfg.label, f3(res.Micros / 1e3), f2(speedup), cfg.paperSpeedup,
		})
		r.metric("speedup_"+cfg.label, speedup)
	}
	return r, nil
}

// fig16 reports weak scaling: time per grid point for growing domains
// on 4 and 8 FPGAs (the paper sweeps to 16384^2; capped at 8192^2).
func fig16(Options) (*Report, error) {
	steps := 32
	grids := []int{1024, 2048, 4096, 8192}
	r := &Report{
		ID:     "fig16",
		Title:  fmt.Sprintf("Stencil time per point [ns], %d timesteps, 4 banks per FPGA", steps),
		Header: []string{"grid", "4 ranks (ns)", "8 ranks (ns)", "ratio"},
		Notes:  []string{"paper: at large grids 8 FPGAs achieve ~2x over 4 FPGAs"},
	}
	for _, n := range grids {
		r4, err := apps.Stencil(apps.StencilConfig{N: n, Timesteps: steps, RanksX: 2, RanksY: 2, Banks: 4})
		if err != nil {
			return nil, fmt.Errorf("fig16 %d/4: %w", n, err)
		}
		r8, err := apps.Stencil(apps.StencilConfig{N: n, Timesteps: steps, RanksX: 4, RanksY: 2, Banks: 4})
		if err != nil {
			return nil, fmt.Errorf("fig16 %d/8: %w", n, err)
		}
		r.Rows = append(r.Rows, []string{
			fmt.Sprintf("%dx%d", n, n), f3(r4.NsPerPoint), f3(r8.NsPerPoint),
			f2(r4.NsPerPoint / r8.NsPerPoint),
		})
		r.metric(fmt.Sprintf("ratio_%d", n), r4.NsPerPoint/r8.NsPerPoint)
	}
	return r, nil
}
