package smi

import (
	"fmt"
	"io"
	"slices"
	"strconv"

	"repro/internal/fault"
	"repro/internal/fpga"
	"repro/internal/link"
	"repro/internal/packet"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/transport"
	"repro/internal/vistrace"
)

// Config assembles an SMI cluster: the wiring, the program's declared
// ports, and the transport parameters.
type Config struct {
	// Topology is the physical interconnect (required).
	Topology *topology.Topology
	// Program declares every SMI port the application uses (required).
	Program ProgramSpec
	// RoutingPolicy selects the route generator algorithm (default
	// ShortestPath; use routing.UpDown for provable deadlock freedom).
	RoutingPolicy routing.Policy
	// Routes, if non-nil, supplies precomputed routing tables instead of
	// running the route generator — the warm-cache hook the smid service
	// uses to reuse one verified table across identical-topology jobs.
	// The tables must match the topology's device and interface counts,
	// its wiring when they know it (tables from routing.Compute or
	// routing.ReadJSON do), and the configured RoutingPolicy. A reliable
	// cluster clones them, so failover re-routing never mutates the
	// caller's copy; any other cluster only reads them.
	Routes *routing.Routes
	// Transport tunes the transport layer: the CK arbiter
	// (Transport.Arbiter, parse with transport.ParseArbiter), the
	// polling factor R and the FIFO depths.
	Transport transport.Config
	// LinkLatency is the one-way serial link latency in cycles
	// (default link.DefaultLatency).
	LinkLatency int64
	// ClockHz is the design clock (default sim.DefaultClockHz,
	// 156.25 MHz: one 32-byte packet per cycle = 40 Gbit/s per link).
	ClockHz float64
	// Board describes the FPGA card at every rank (default the
	// Nallatech 520N used in the paper's evaluation).
	Board fpga.Board
	// MaxCycles bounds the simulation (default 4e9 cycles ≈ 25 s of
	// simulated time).
	MaxCycles int64
	// ChromeTrace, if non-nil, receives a Chrome trace-event JSON file
	// (load in chrome://tracing or Perfetto) with one lane per
	// application kernel and hardware kernel, written when Run finishes.
	// One trace microsecond equals one simulated cycle.
	ChromeTrace io.Writer
	// Faults attaches a deterministic fault-injection schedule to the
	// inter-FPGA links and implies the reliable link layer. nil keeps the
	// paper's pristine links. A spec with no faults scheduled still runs
	// the retransmission protocol, which is timing-transparent: cycle
	// counts match the pristine links bit for bit.
	Faults *fault.Spec
	// Reliable forces the link-level retransmission protocol even
	// without a fault spec.
	Reliable bool
	// LinkParams tunes the retransmission protocol; zero values pick
	// latency-derived defaults.
	LinkParams link.ReliableParams
	// RepairCycles is the simulated host reaction time a failover
	// charges between detecting a dead cable and re-enabling the
	// transport kernels on regenerated routes (default 400 cycles).
	RepairCycles int64
	// Scheduler selects the simulator's scheduling mode: the default
	// sim.SchedEvent activity-set scheduler, sim.SchedDense, the
	// reference dense scan, or sim.SchedShardAdaptive, the conservative
	// parallel scheduler with per-boundary lookahead and deterministic
	// work stealing (see Shards). All modes produce bit-identical runs;
	// dense is kept for parity testing and as a benchmark baseline.
	Scheduler sim.SchedulerKind
	// Shards is the worker-slot count of sim.SchedShardAdaptive and
	// nothing else. With Shards > 1 every rank becomes its own engine,
	// connected to the others only through the link boundaries: each
	// engine advances to its own per-boundary safe horizon on one of
	// Shards worker goroutines, and ownership is rebalanced
	// deterministically between rounds. 0 or 1 keeps the single-engine
	// build; Shards > 1 with any other scheduler is rejected. Reliable
	// and fault-injected clusters run in parallel too — the split link
	// halves keep the retransmission protocol's couplings engine-local
	// and the failover manager runs as a barrier-stepped coordinator.
	// Tracing (ChromeTrace) is rejected with Shards > 1.
	Shards int
	// Progress, if non-nil, is called between cycles whenever the clock
	// crosses a multiple of ProgressEvery cycles (default 1_000_000 when
	// a callback is set). Purely observational: it never changes cycle
	// counts, so instrumented and bare runs stay bit-identical.
	Progress      func(cycle int64)
	ProgressEvery int64
}

// Cluster is a multi-FPGA system ready to execute rank programs.
type Cluster struct {
	cfg    Config
	engs   []*sim.Engine // one engine, or one per rank under the parallel scheduler
	group  *sim.Group    // parallel driver, nil when len(engs) == 1
	routes *routing.Routes
	// routeEpoch numbers the routing tables in force: 1 at build, bumped
	// by every failover swap (see peerErr).
	routeEpoch uint32
	world      Comm
	clock      sim.Clock
	board      fpga.Board

	ranks    []*rankState
	links    []*link.Link
	rlinks   []*link.ReliableLink
	cables   []*cable
	injector *fault.Injector
	manager  *faultManager
	procs    int
	ran      bool
	tracer   *vistrace.Tracer
}

type rankState struct {
	rank     int
	dev      *transport.Device
	eps      []endpoint      // one per declared port, in program order
	supports []supportKernel // one per collective port, in program order
}

// endpoint returns the rank's endpoint of the given port.
func (rs *rankState) endpoint(port int) (*endpoint, bool) {
	for i := range rs.eps {
		if rs.eps[i].spec.Port == port {
			return &rs.eps[i], true
		}
	}
	return nil, false
}

// endpoint is the application-facing side of one port at one rank.
type endpoint struct {
	spec PortSpec
	// appSend carries packets from the application toward the network:
	// directly into CKS for P2P ports, into the support kernel for
	// collective ports. appRecv is the symmetric receive side.
	appSend *sim.Fifo[packet.Packet]
	appRecv *sim.Fifo[packet.Packet]
	// inUseSend/inUseRecv guard against two open channels using the same
	// endpoint direction concurrently (hardware has one wire per side).
	inUseSend bool
	inUseRecv bool
	// pushView and popView are PushSlice's and PopSlice's typed element
	// views (see typedView).
	pushView, popView any
	// The state of the port's open channel, allocated by the first open
	// and reset in place by every later one: send and recv for a P2P
	// port, coll for a collective port. inUseSend/inUseRecv allow one
	// open channel per direction, so no two channels share a state.
	send *sendState
	recv *recvState
	coll *collectiveBase
}

// NewCluster validates the configuration, generates routes, and builds
// every rank's endpoint FIFOs, collective support kernels, transport
// layer, and inter-FPGA links — the work the paper splits between its
// code generator, route generator, and host setup (Fig 8).
func NewCluster(cfg Config) (*Cluster, error) {
	if cfg.Topology == nil {
		return nil, fmt.Errorf("smi: config needs a topology")
	}
	if err := cfg.Topology.Validate(); err != nil {
		return nil, err
	}
	if cfg.Topology.Devices > packet.MaxRanks {
		return nil, fmt.Errorf("smi: %d devices exceed the simulator's %d-rank limit",
			cfg.Topology.Devices, packet.MaxRanks)
	}
	if err := cfg.Program.Validate(); err != nil {
		return nil, err
	}
	if cfg.Board.Name == "" {
		cfg.Board = fpga.Nallatech520N()
	}
	if cfg.ClockHz <= 0 {
		cfg.ClockHz = sim.DefaultClockHz
	}
	if cfg.MaxCycles <= 0 {
		cfg.MaxCycles = 4_000_000_000
	}
	if cfg.Faults != nil {
		if err := cfg.Faults.Validate(); err != nil {
			return nil, err
		}
	}
	if cfg.LinkLatency < 0 {
		return nil, fmt.Errorf("smi: negative link latency %d", cfg.LinkLatency)
	}
	if cfg.RepairCycles <= 0 {
		cfg.RepairCycles = 400
	}
	reliable := cfg.Reliable || cfg.Faults != nil
	if reliable && cfg.Topology.Devices > packet.MaxWireRanks {
		// The reliable layer serializes packets into 32-byte wire frames
		// whose rank fields are 8 bits wide (the paper's header format);
		// larger clusters run pristine links only.
		return nil, fmt.Errorf("smi: %d devices exceed the %d-rank limit of the 8-bit wire header required by reliable links",
			cfg.Topology.Devices, packet.MaxWireRanks)
	}
	shards := cfg.Shards
	if shards < 0 {
		return nil, fmt.Errorf("smi: negative shard count %d", cfg.Shards)
	}
	if shards > cfg.Topology.Devices {
		return nil, fmt.Errorf("smi: %d shards exceed the cluster's %d ranks", shards, cfg.Topology.Devices)
	}
	nEng := 1
	if shards > 1 {
		if cfg.Scheduler != sim.SchedShardAdaptive {
			return nil, fmt.Errorf("smi: %d shards need the %s scheduler, got %s", shards, sim.SchedShardAdaptive, cfg.Scheduler)
		}
		if cfg.ChromeTrace != nil {
			return nil, fmt.Errorf("smi: tracing records a single global event order and cannot run with %d shards", shards)
		}
		// Every rank gets its own engine so horizons are truly
		// per-boundary; Shards sets the worker-slot count.
		nEng = cfg.Topology.Devices
	}

	var routes *routing.Routes
	if cfg.Routes != nil {
		if cfg.Routes.Devices != cfg.Topology.Devices || cfg.Routes.Ifaces != cfg.Topology.Ifaces {
			return nil, fmt.Errorf("smi: precomputed routes are for %d devices/%d ifaces, topology has %d/%d",
				cfg.Routes.Devices, cfg.Routes.Ifaces, cfg.Topology.Devices, cfg.Topology.Ifaces)
		}
		if cfg.Routes.Policy != cfg.RoutingPolicy {
			return nil, fmt.Errorf("smi: precomputed routes use policy %v, config asks for %v",
				cfg.Routes.Policy, cfg.RoutingPolicy)
		}
		if rt := cfg.Routes.Topology(); rt != nil && !slices.Equal(rt.Connections, cfg.Topology.Connections) {
			return nil, fmt.Errorf("smi: precomputed routes are for topology %s, config has %s",
				describeTopology(rt), describeTopology(cfg.Topology))
		}
		routes = cfg.Routes
		if reliable {
			// Failover overwrites the tables in place; never mutate the
			// caller's (possibly cached and shared) copy. Only a reliable
			// cluster has a fault manager to write them.
			routes = routes.Clone()
		}
	} else {
		var err error
		routes, err = routing.Compute(cfg.Topology, cfg.RoutingPolicy)
		if err != nil {
			return nil, err
		}
	}

	engs := make([]*sim.Engine, nEng)
	for i := range engs {
		e := sim.NewEngine()
		e.SetScheduler(cfg.Scheduler)
		e.SetMaxCycles(cfg.MaxCycles)
		engs[i] = e
	}
	progressEvery := cfg.ProgressEvery
	if progressEvery <= 0 {
		progressEvery = 1_000_000
	}
	if cfg.Progress != nil && nEng == 1 {
		engs[0].SetProgress(progressEvery, cfg.Progress)
	}
	var tracer *vistrace.Tracer
	if cfg.ChromeTrace != nil {
		tracer = vistrace.New()
		engs[0].SetRecorder(tracer)
	}

	c := &Cluster{
		cfg:        cfg,
		engs:       engs,
		routes:     routes,
		routeEpoch: 1,
		world:      Comm{base: 0, size: cfg.Topology.Devices},
		clock:      sim.Clock{Hz: cfg.ClockHz},
		board:      cfg.Board,
		tracer:     tracer,
	}
	engFor := c.engFor

	// The endpoint FIFOs of a rank, in registration order: send and recv
	// for a point-to-point port; app2sup, sup2app, sup.send and sup.recv
	// for a collective one. Only the rank differs between ranks.
	ifaces := cfg.Topology.Ifaces
	specs := make([]PortSpec, len(cfg.Program.Ports))
	var epFifos []endpointFifo
	nSupports := 0
	for i := range specs {
		spec := cfg.Program.Ports[i] // copy
		spec.fill(i, ifaces)
		specs[i] = spec
		epp := spec.Type.ElemsPerPacket()
		depth := (spec.BufferElems + epp - 1) / epp
		if depth < 2 {
			depth = 2
		}
		if spec.Kind == P2P {
			epFifos = append(epFifos, endpointFifo{spec.Port, "send", depth}, endpointFifo{spec.Port, "recv", depth})
			continue
		}
		recvDepth := depth
		if spec.Kind == Reduce {
			// The root must always be able to flush a full credit tile to
			// its application FIFO, or flow control jams.
			tilePkts := spec.CreditElems / epp
			if recvDepth < tilePkts+2 {
				recvDepth = tilePkts + 2
			}
		}
		epFifos = append(epFifos, endpointFifo{spec.Port, "app2sup", depth}, endpointFifo{spec.Port, "sup2app", recvDepth},
			endpointFifo{spec.Port, "sup.send", depth}, endpointFifo{spec.Port, "sup.recv", depth})
		nSupports++
	}

	states := make([]rankState, cfg.Topology.Devices)
	c.ranks = make([]*rankState, len(states))
	bindings := make([]transport.PortBinding, 0, len(specs))
	for r := range states {
		eng := engFor(r) // every per-rank component lives on the rank's engine
		rs := &states[r]
		rs.rank = r
		rs.eps = make([]endpoint, len(specs))
		rs.supports = make([]supportKernel, 0, nSupports)
		fifos := sim.NewFifos[packet.Packet](eng, len(epFifos),
			func(i int) int { return epFifos[i].depth },
			func(i int) string { return fmt.Sprintf("r%d.p%d.%s", r, epFifos[i].port, epFifos[i].side) })
		bindings = bindings[:0]
		for i, spec := range specs {
			ep := &rs.eps[i]
			ep.spec = spec
			ep.appSend, ep.appRecv = &fifos[0], &fifos[1]
			if spec.Kind == P2P {
				fifos = fifos[2:]
				bindings = append(bindings, transport.PortBinding{
					Port: spec.Port, Iface: spec.Iface, Send: ep.appSend, Recv: ep.appRecv,
				})
				continue
			}
			// Collective port: the support kernel sits between the
			// application FIFOs and the transport layer.
			supSend, supRecv := &fifos[2], &fifos[3]
			fifos = fifos[4:]
			rs.supports = append(rs.supports, supportKernel{})
			sup := &rs.supports[len(rs.supports)-1]
			sup.init(r, cfg.Topology.Devices, spec, ep.appSend, ep.appRecv, supSend, supRecv)
			sup.id = eng.AddKernel(sup)
			// Commits on the inbound FIFOs and pops on a full outbound
			// one (see supportKernel.Tick) are the only events that can
			// unpark the kernel.
			ep.appSend.WakesKernel(sup.id)
			supRecv.WakesKernel(sup.id)
			bindings = append(bindings, transport.PortBinding{
				Port: spec.Port, Iface: spec.Iface, Send: supSend, Recv: supRecv,
			})
		}
		dev, err := transport.New(eng, r, ifaces, routes, bindings, cfg.Transport)
		if err != nil {
			return nil, err
		}
		rs.dev = dev
		c.ranks[r] = rs
	}

	if reliable {
		c.injector = fault.NewInjector(cfg.Faults)
	}
	if cfg.Faults != nil {
		// Scripted events must name real directed links, or the schedule
		// silently does nothing — a misspelled link is a spec bug.
		names := make(map[string]bool, 2*len(cfg.Topology.Connections))
		for _, conn := range cfg.Topology.Connections {
			names[linkName(conn.A, conn.B)] = true
			names[linkName(conn.B, conn.A)] = true
		}
		for _, ev := range cfg.Faults.Events {
			if ev.Link == "" { // wildcard: applies to every link
				continue
			}
			if !names[ev.Link] {
				return nil, fmt.Errorf("smi: fault event names unknown link %q (links are \"dev:iface->dev:iface\")", ev.Link)
			}
		}
	}
	for _, conn := range cfg.Topology.Connections {
		a, b := conn.A, conn.B
		nameAB, nameBA := linkName(a, b), linkName(b, a)
		outA, inA := c.ranks[a.Device].dev.NetOut(a.Iface), c.ranks[a.Device].dev.NetIn(a.Iface)
		outB, inB := c.ranks[b.Device].dev.NetOut(b.Iface), c.ranks[b.Device].dev.NetIn(b.Iface)
		if reliable {
			ab, ba := link.NewReliablePair(engFor(a.Device), engFor(b.Device), nameAB, nameBA,
				outA, inB, outB, inA, cfg.LinkLatency, cfg.LinkParams,
				c.injector.ForLink(nameAB), c.injector.ForLink(nameBA),
				c.injector.ForLinkExit(nameAB), c.injector.ForLinkExit(nameBA))
			c.rlinks = append(c.rlinks, ab, ba)
			c.cables = append(c.cables, &cable{conn: conn, ab: ab, ba: ba})
		} else {
			c.links = append(c.links,
				link.New(engFor(a.Device), engFor(b.Device), nameAB, outA, inB, cfg.LinkLatency),
				link.New(engFor(b.Device), engFor(a.Device), nameBA, outB, inA, cfg.LinkLatency),
			)
		}
	}
	if reliable {
		c.manager = newFaultManager(c, cfg.RepairCycles)
		if nEng == 1 {
			// Registered after every link so a death declared in cycle t
			// is handled the same cycle.
			engs[0].AddKernel(c.manager)
		} else {
			// Per-rank engines: the manager is not a kernel (its tick reads
			// every cable's state, which now spans engines) but a
			// coordinator the group drives at barriers, reproducing the
			// dense kernel tick with all engines stopped.
			c.manager.barrier = true
		}
	}
	if nEng > 1 {
		c.group = sim.NewGroup(engs, cfg.MaxCycles, shards)
		if c.manager != nil {
			c.group.SetCoordinator(c.manager)
		}
		if cfg.Progress != nil {
			c.group.SetProgress(progressEvery, cfg.Progress)
		}
	}
	return c, nil
}

// describeTopology names a topology in an error message.
func describeTopology(t *topology.Topology) string {
	return fmt.Sprintf("%q (%d devices, %d cables)", t.Name, t.Devices, len(t.Connections))
}

// endpointFifo describes one endpoint FIFO of a rank (see NewCluster).
type endpointFifo struct {
	port  int
	side  string
	depth int
}

// linkName formats the name of the link from a to b,
// "dev:iface->dev:iface" (the form fault specs name links by), with one
// allocation: link.New takes its name formatted.
func linkName(a, b topology.Endpoint) string {
	var buf [32]byte
	n := strconv.AppendInt(buf[:0], int64(a.Device), 10)
	n = append(n, ':')
	n = strconv.AppendInt(n, int64(a.Iface), 10)
	n = append(n, "->"...)
	n = strconv.AppendInt(n, int64(b.Device), 10)
	n = append(n, ':')
	n = strconv.AppendInt(n, int64(b.Iface), 10)
	return string(n)
}

// engFor maps a rank to its engine: its own under the parallel
// scheduler, the shared one otherwise.
func (c *Cluster) engFor(rank int) *sim.Engine {
	if len(c.engs) == 1 {
		return c.engs[0]
	}
	return c.engs[rank]
}

// Size returns the number of ranks in the cluster.
func (c *Cluster) Size() int { return len(c.ranks) }

// Clock returns the cluster's clock for cycle/time conversions.
func (c *Cluster) Clock() sim.Clock { return c.clock }

// Board returns the FPGA board model of every rank.
func (c *Cluster) Board() fpga.Board { return c.board }

// Routes exposes the routing tables (useful for inspecting hop counts).
func (c *Cluster) Routes() *routing.Routes { return c.routes }

// Failed reports whether the fault manager has declared the cluster
// failed (a permanent link death whose repair was impossible). Once
// failed, every channel operation returns ClusterFailed.
func (c *Cluster) Failed() bool {
	return c.manager != nil && c.manager.state == fmFailed
}

// FailureCause returns the error that failed the cluster, or nil.
func (c *Cluster) FailureCause() error {
	if c.manager == nil {
		return nil
	}
	return c.manager.err
}

// OnRank registers a rank program: an application kernel running on the
// given rank. Several kernels may run on one rank (MPMD); each gets its
// own Ctx. Kernels start at cycle 0 when Run is called.
func (c *Cluster) OnRank(rank int, name string, body func(*Ctx)) error {
	if rank < 0 || rank >= len(c.ranks) {
		return fmt.Errorf("smi: rank %d out of range [0,%d)", rank, len(c.ranks))
	}
	if c.ran {
		return fmt.Errorf("smi: cluster already ran")
	}
	x := &Ctx{c: c, rank: rank}
	x.proc = sim.NewProc(c.engFor(rank), fmt.Sprintf("r%d.%s", rank, name), func(p *sim.Proc) {
		body(x)
	})
	c.procs++
	return nil
}

// SPMD registers the same program on every rank (single program,
// multiple data).
func (c *Cluster) SPMD(name string, body func(*Ctx)) error {
	for r := 0; r < len(c.ranks); r++ {
		if err := c.OnRank(r, name, body); err != nil {
			return err
		}
	}
	return nil
}

// Stats summarizes one cluster execution. The JSON form is the stats
// schema shared by the smid service (job results) and smibench -json
// (bench results), so the two are directly diffable.
type Stats struct {
	// Cycles is the completion cycle of the slowest rank program.
	Cycles int64 `json:"cycles"`
	// Micros is Cycles converted to simulated microseconds.
	Micros float64 `json:"micros"`
	// PacketsDelivered is the total count of packets moved across all
	// inter-FPGA links.
	PacketsDelivered uint64 `json:"packets_delivered"`
	// PacketsDropped counts undeliverable packets (normally 0).
	PacketsDropped uint64 `json:"packets_dropped"`
	// StreamFragments counts stream fragments cut through communication
	// kernels (each fragment once per kernel it crossed): nonzero iff the
	// streaming large-message path was exercised.
	StreamFragments uint64 `json:"stream_fragments,omitempty"`
	// LinkStalls counts cycles link heads spent blocked on full receiver
	// FIFOs (backpressure).
	LinkStalls uint64 `json:"link_stalls"`
	// Retransmits counts data frames the reliable link layer sent more
	// than once (always 0 in fault-free runs).
	Retransmits uint64 `json:"retransmits"`
	// CrcErrors counts frames receivers discarded as corrupt.
	CrcErrors uint64 `json:"crc_errors"`
	// FaultsInjected aggregates what the fault injector actually did.
	FaultsInjected fault.Counters `json:"faults_injected"`
	// Failovers counts permanent-link-death repairs performed.
	Failovers int `json:"failovers"`
	// FailoverCycles is the total cycles between death detection and
	// traffic resume, across all failovers.
	FailoverCycles int64 `json:"failover_cycles"`
	// RescuedPackets counts packets the failover controller re-injected
	// on regenerated routes.
	RescuedPackets uint64 `json:"rescued_packets"`
	// ClusterFailed reports that the fault manager declared the cluster
	// unrepairable. A run can still complete cleanly in this state if
	// every rank program recovers from the ClusterFailed channel errors
	// and returns.
	ClusterFailed bool `json:"cluster_failed"`
	// Sched reports how the engine spent the run: which scheduler ran,
	// how many cycles were executed versus skipped by fast-forward, and
	// the kernel-tick / proc-step / FIFO-commit work totals.
	Sched sim.SchedStats `json:"sched"`
}

// LinkStats describes the traffic one directed link carried during a
// run: useful for spotting hot links and congestion in a mapping.
type LinkStats struct {
	Name      string
	Delivered uint64
	// Stalls counts cycles the link head spent blocked on a full
	// receiver FIFO (backpressure).
	Stalls uint64
	// Retransmits and CrcErrors are the reliable layer's repair work on
	// this direction (0 on pristine links).
	Retransmits uint64
	CrcErrors   uint64
	// Utilization is Delivered divided by the total cycles of the run.
	Utilization float64
}

// LinkStats reports per-link traffic after Run (sorted by the builder's
// link order: both directions of each cable in topology order).
func (c *Cluster) LinkStats() []LinkStats {
	cycles := c.cycles()
	out := make([]LinkStats, 0, len(c.links)+len(c.rlinks))
	for _, l := range c.links {
		st := LinkStats{Name: l.Name(), Delivered: l.Delivered(), Stalls: l.Stalls()}
		if cycles > 0 {
			st.Utilization = float64(l.Delivered()) / float64(cycles)
		}
		out = append(out, st)
	}
	for _, l := range c.rlinks {
		st := LinkStats{Name: l.Name(), Delivered: l.Delivered(), Stalls: l.Stalls(),
			Retransmits: l.Retransmits(), CrcErrors: l.CrcErrors()}
		if cycles > 0 {
			st.Utilization = float64(l.Delivered()) / float64(cycles)
		}
		out = append(out, st)
	}
	return out
}

// cycles returns the run's quoted cycle count: the group's
// barrier-derived count for parallel runs (invariant under the worker
// count), the engine clock otherwise.
func (c *Cluster) cycles() int64 {
	if c.group != nil {
		return c.group.Cycles()
	}
	return c.engs[0].Now()
}

// schedStats assembles the scheduler-effort report for Stats.
func (c *Cluster) schedStats() sim.SchedStats {
	if c.group != nil {
		return c.group.SchedStats()
	}
	st := c.engs[0].SchedStats()
	if c.cfg.Scheduler == sim.SchedShardAdaptive {
		// A one-worker run executes on the plain event loop with no
		// barriers to count.
		st.Shards = 1
	}
	return st
}

// Run executes every registered rank program to completion and returns
// timing and traffic statistics. It fails on deadlock (with a diagnostic
// of every blocked operation), on a rank program panic, or if MaxCycles
// is exceeded.
func (c *Cluster) Run() (Stats, error) {
	if c.procs == 0 {
		return Stats{}, fmt.Errorf("smi: no rank programs registered")
	}
	if c.ran {
		return Stats{}, fmt.Errorf("smi: cluster already ran")
	}
	c.ran = true
	var err error
	if c.group != nil {
		err = c.group.Run()
	} else {
		err = c.engs[0].Run()
	}
	if err != nil && c.manager != nil && c.manager.err != nil {
		// A failed repair quiesces whatever the abort wake-up could not
		// reach; a resulting deadlock or panic is a symptom, the repair
		// error is the cause. A clean engine finish is NOT overridden:
		// rank programs that recover from ClusterFailed channel errors
		// complete the run, with the failure recorded in Stats.
		err = c.manager.err
	}
	if c.tracer != nil {
		if c.injector != nil {
			for _, tf := range c.injector.Timeline() {
				c.tracer.Instant("fault:"+tf.Link, tf.Kind, tf.Cycle)
			}
		}
		if c.manager != nil {
			for _, tf := range c.manager.log {
				c.tracer.Instant("fault:manager", tf.Kind, tf.Cycle)
			}
		}
		if werr := c.tracer.Write(c.cfg.ChromeTrace); werr != nil && err == nil {
			err = fmt.Errorf("smi: writing chrome trace: %w", werr)
		}
	}
	st := Stats{Cycles: c.cycles(), Sched: c.schedStats()}
	st.Micros = c.clock.Micros(st.Cycles)
	for _, l := range c.links {
		st.PacketsDelivered += l.Delivered()
		st.LinkStalls += l.Stalls()
	}
	for _, l := range c.rlinks {
		st.PacketsDelivered += l.Delivered()
		st.LinkStalls += l.Stalls()
		st.Retransmits += l.Retransmits()
		st.CrcErrors += l.CrcErrors()
	}
	if c.injector != nil {
		st.FaultsInjected = c.injector.Counters()
	}
	if c.manager != nil {
		st.Failovers = c.manager.failovers
		st.FailoverCycles = c.manager.failoverCycles
		st.RescuedPackets = c.manager.rescued
		st.ClusterFailed = c.manager.state == fmFailed
	}
	for _, rs := range c.ranks {
		st.PacketsDropped += rs.dev.Dropped()
		st.StreamFragments += rs.dev.StreamFragments()
	}
	if err != nil {
		return st, err
	}
	for _, rs := range c.ranks {
		for i := range rs.supports {
			sup := &rs.supports[i]
			// A contribution set aside or a grant still counted at the end
			// had no round to use it: both are violations too.
			bad := sup.bad + uint64(len(sup.early))
			for _, g := range sup.grants {
				bad += uint64(g)
			}
			if bad > 0 {
				return st, fmt.Errorf("smi: support kernel %s saw %d protocol violations", sup.Name(), bad)
			}
		}
	}
	return st, nil
}
