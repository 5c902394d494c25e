package bench

import (
	"fmt"

	"repro/internal/apps"
	smi "repro/internal/core"
	"repro/internal/hostcomm"
	"repro/internal/packet"
	"repro/internal/resources"
	"repro/internal/topology"
	"repro/internal/transport"
)

func init() {
	register("table1", "SMI resource consumption (1 vs 4 QSFPs)", table1)
	register("table2", "Collective support kernel resource consumption", table2)
	register("table3", "Point-to-point latency: SMI vs MPI+OpenCL", table3)
	register("table4", "Injection rate vs polling factor R", table4)
}

// oneQSFPTopology is the Table 1 single-network-port scenario: two
// devices joined by one cable, one interface each.
func oneQSFPTopology() *topology.Topology {
	return &topology.Topology{
		Devices: 2,
		Ifaces:  1,
		Name:    "pair-1qsfp",
		Connections: []topology.Connection{
			{A: topology.Endpoint{Device: 0, Iface: 0}, B: topology.Endpoint{Device: 1, Iface: 0}},
		},
	}
}

// table1 instantiates the two measured design points — one and four
// QSFPs, one application endpoint per CKS/CKR pair — and reports the
// estimated interconnect and communication kernel resources next to the
// paper's synthesis results.
func table1(Options) (*Report, error) {
	build := func(topo *topology.Topology, ports int) (smi.RankResources, error) {
		var specs []smi.PortSpec
		for p := 0; p < ports; p++ {
			specs = append(specs, smi.PortSpec{Port: p, Type: smi.Int})
		}
		c, err := smi.NewCluster(smi.Config{Topology: topo, Program: smi.ProgramSpec{Ports: specs}})
		if err != nil {
			return smi.RankResources{}, err
		}
		return c.RankResources(0), nil
	}
	one, err := build(oneQSFPTopology(), 1)
	if err != nil {
		return nil, err
	}
	torus, err := topology.Torus2D(2, 4)
	if err != nil {
		return nil, err
	}
	four, err := build(torus, 4)
	if err != nil {
		return nil, err
	}
	chip := resources.StratixGX2800()
	pct := func(u resources.Usage) string {
		l, f, m, _ := u.Percent(chip)
		return fmt.Sprintf("%.1f%%/%.1f%%/%.1f%%", l, f, m)
	}
	r := &Report{
		ID:     "table1",
		Title:  "SMI resource consumption",
		Header: []string{"component", "LUTs", "FFs", "M20Ks", "paper LUTs", "paper FFs", "paper M20Ks"},
		Rows: [][]string{
			{"1 QSFP interconnect", fmt.Sprint(one.Interconnect.LUTs), fmt.Sprint(one.Interconnect.FFs), fmt.Sprint(one.Interconnect.M20Ks), "144", "4872", "0"},
			{"1 QSFP comm kernels", fmt.Sprint(one.Kernels.LUTs), fmt.Sprint(one.Kernels.FFs), fmt.Sprint(one.Kernels.M20Ks), "6186", "7189", "10"},
			{"4 QSFP interconnect", fmt.Sprint(four.Interconnect.LUTs), fmt.Sprint(four.Interconnect.FFs), fmt.Sprint(four.Interconnect.M20Ks), "1152", "39264", "0"},
			{"4 QSFP comm kernels", fmt.Sprint(four.Kernels.LUTs), fmt.Sprint(four.Kernels.FFs), fmt.Sprint(four.Kernels.M20Ks), "30960", "31072", "40"},
		},
		Notes: []string{
			fmt.Sprintf("4-QSFP total is %s of the Stratix 10 GX2800 (paper: 1.7%%/1.9%%/0.3%%; 'less than 2%%')",
				pct(four.Interconnect.Add(four.Kernels))),
		},
	}
	r.metric("luts_4qsfp", float64(four.Interconnect.Add(four.Kernels).LUTs))
	r.metric("ffs_4qsfp", float64(four.Interconnect.Add(four.Kernels).FFs))
	return r, nil
}

func table2(Options) (*Report, error) {
	b := resources.BcastSupport()
	rd := resources.ReduceSupport(packet.Float)
	return &Report{
		ID:     "table2",
		Title:  "Collective support kernel resources",
		Header: []string{"kernel", "LUTs", "FFs", "M20Ks", "DSPs", "paper LUTs", "paper FFs", "paper DSPs"},
		Rows: [][]string{
			{"Broadcast", fmt.Sprint(b.LUTs), fmt.Sprint(b.FFs), fmt.Sprint(b.M20Ks), fmt.Sprint(b.DSPs), "2560", "3593", "0"},
			{"Reduce (FP32 SUM)", fmt.Sprint(rd.LUTs), fmt.Sprint(rd.FFs), fmt.Sprint(rd.M20Ks), fmt.Sprint(rd.DSPs), "10268", "14648", "6"},
		},
	}, nil
}

// table3 measures ping-pong latency at 1, 4 and 7 hops over a linear
// bus, plus the host-based baseline.
func table3(Options) (*Report, error) {
	topo, err := topology.Bus(8)
	if err != nil {
		return nil, err
	}
	cfg := apps.NetConfig{Topology: topo, Transport: transport.DefaultConfig()}
	rounds := 16
	r := &Report{
		ID:     "table3",
		Title:  "Measured latency in microseconds",
		Header: []string{"path", "latency (us)", "paper (us)"},
	}
	host := hostcomm.Default().LatencyUs()
	r.Rows = append(r.Rows, []string{"MPI+OpenCL", f3(host), "36.61"})
	paper := map[int]string{1: "0.801", 4: "2.896", 7: "5.103"}
	for _, hops := range []int{1, 4, 7} {
		res, err := apps.PingPong(cfg, 0, hops, rounds)
		if err != nil {
			return nil, err
		}
		r.Rows = append(r.Rows, []string{fmt.Sprintf("SMI-%d", hops), f3(res.LatencyUs), paper[hops]})
		r.metric(fmt.Sprintf("smi_%dhop_us", hops), res.LatencyUs)
	}
	r.metric("host_us", host)
	return r, nil
}

// table4 measures the injection latency for R in {1, 4, 8, 16}.
func table4(Options) (*Report, error) {
	topo, err := topology.Bus(2)
	if err != nil {
		return nil, err
	}
	msgs := 5000
	r := &Report{
		ID:     "table4",
		Title:  "Average injection rate in cycles per message",
		Header: []string{"R", "cycles/msg", "paper cycles/msg"},
		Notes: []string{
			"the model's poller pays one cycle per empty input scanned, giving (R+4)/R for",
			"5 inputs; the paper's measured values carry extra pipeline overheads at high R",
		},
	}
	paper := map[int]string{1: "5", 4: "2.5", 8: "1.8", 16: "1.69"}
	for _, rr := range []int{1, 4, 8, 16} {
		cfg := apps.NetConfig{Topology: topo, Transport: transport.Config{R: rr}}
		res, err := apps.Injection(cfg, msgs)
		if err != nil {
			return nil, err
		}
		r.Rows = append(r.Rows, []string{fmt.Sprint(rr), f2(res.CyclesPerMsg), paper[rr]})
		r.metric(fmt.Sprintf("cycles_per_msg_r%d", rr), res.CyclesPerMsg)
	}
	return r, nil
}
