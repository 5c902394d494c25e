package smi

import (
	"runtime"
	"testing"

	"repro/internal/routing"
	"repro/internal/topology"
)

// timeOp runs b's timer over the receiver's ops 1 to b.N of b.N+1; i
// is the op the receiver just finished. Op 0 is a warm-up: it starts the
// rank procs and opens each port for the first time, which allocates
// the endpoint slot's channel state, so at -benchtime 1x the B/op
// column reads one op's cost, not the run's start-up.
func timeOp(b *testing.B, i int) {
	switch i {
	case 0:
		b.ResetTimer()
	case b.N:
		b.StopTimer()
	}
}

// BenchmarkChannelPushPop is one element end to end at steady state:
// SendChannel.Push -> CKS -> link -> CKR -> RecvChannel.Pop on a 2-rank
// bus, b.N elements streamed over one channel pair. It is the core-layer
// cost that sits on top of sim's BenchmarkProcTick in a proc-dominated
// workload such as the stencil. It reads 0 B/op at any -benchtime.
func BenchmarkChannelPushPop(b *testing.B) {
	n := b.N + 1
	c := busCluster(b, 2, PortSpec{Port: 0, Type: Int})
	c.OnRank(0, "send", func(x *Ctx) {
		ch, err := x.OpenSendChannel(n, Int, 1, 0, x.CommWorld())
		if err != nil {
			b.Error(err)
			return
		}
		for i := 0; i < n; i++ {
			Push(ch, int32(i))
		}
	})
	c.OnRank(1, "recv", func(x *Ctx) {
		ch, err := x.OpenRecvChannel(n, Int, 0, 0, x.CommWorld())
		if err != nil {
			b.Error(err)
			return
		}
		for i := 0; i < n; i++ {
			Pop[int32](ch)
			timeOp(b, i)
		}
	})
	b.ReportAllocs()
	if _, err := c.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkChannelOpen is what opening a channel costs: per op, rank 0
// opens a one-element send channel and pushes its element, and rank 1
// opens the matching receive channel and pops it, on a 2-rank bus. The
// two opens allocate their 16-byte handles and nothing else (see
// TestOpenAllocatesOnlyItsHandle): 32 B/op, and 16 B at -benchtime 1x.
// The sender runs about 90 opens ahead of the receiver, and those fall
// before the timer starts, so allocs/op, which is rounded down, reads 1
// (for 1.9999) rather than 2. The rest of an op is one
// BenchmarkChannelPushPop element, without the pipelining of a long
// message.
func BenchmarkChannelOpen(b *testing.B) {
	n := b.N + 1
	c := busCluster(b, 2, PortSpec{Port: 0, Type: Int})
	c.OnRank(0, "send", func(x *Ctx) {
		for i := 0; i < n; i++ {
			ch, err := x.OpenSendChannel(1, Int, 1, 0, x.CommWorld())
			if err != nil {
				b.Error(err)
				return
			}
			Push(ch, int32(i))
		}
	})
	c.OnRank(1, "recv", func(x *Ctx) {
		for i := 0; i < n; i++ {
			ch, err := x.OpenRecvChannel(1, Int, 0, 0, x.CommWorld())
			if err != nil {
				b.Error(err)
				return
			}
			Pop[int32](ch)
			timeOp(b, i)
		}
	})
	b.ReportAllocs()
	if _, err := c.Run(); err != nil {
		b.Fatal(err)
	}
}

// newClusterCase is one build BenchmarkNewCluster and
// TestNewClusterAllocBudget measure.
type newClusterCase struct {
	name      string
	cfg       Config
	maxAllocs float64 // TestNewClusterAllocBudget's ceilings
	maxBytes  uint64
}

// newClusterCases are the measured builds, with the routes precomputed
// as a warm route cache would supply them: the median job of the
// svc-mix service benchmark (a two-port pingpong on an 8-rank bus) and a
// 512-element Bcast on the 64-rank torus. The allocation ceilings are
// about twice what the builds cost when they were set (218 and 2 548);
// the byte ceilings are about 5 % above it (84.6 and 860 KB), since a
// build's bytes are mostly its FIFO and kernel slabs.
func newClusterCases(tb testing.TB) []newClusterCase {
	tb.Helper()
	bus, err := topology.Bus(8)
	if err != nil {
		tb.Fatal(err)
	}
	torus, err := topology.Torus2D(8, 8)
	if err != nil {
		tb.Fatal(err)
	}
	withRoutes := func(cfg Config) Config {
		r, err := routing.Compute(cfg.Topology, cfg.RoutingPolicy)
		if err != nil {
			tb.Fatal(err)
		}
		cfg.Routes = r
		return cfg
	}
	return []newClusterCase{
		{"pingpong-bus8", withRoutes(Config{Topology: bus, Program: ProgramSpec{Ports: []PortSpec{
			{Port: 0, Type: Int}, {Port: 1, Type: Int},
		}}}), 450, 90_000},
		{"bcast-torus64", withRoutes(Config{Topology: torus, RoutingPolicy: routing.UpDown, Program: ProgramSpec{Ports: []PortSpec{
			{Port: 0, Kind: Bcast, Type: Float, BufferElems: 512},
		}}}), 5000, 900_000},
	}
}

// builtCluster keeps BenchmarkNewCluster's result live.
var builtCluster *Cluster

// BenchmarkNewCluster is the cost of building a cluster, routes given:
// the fixed per-job cost a service pays before the first cycle runs.
func BenchmarkNewCluster(b *testing.B) {
	for _, tc := range newClusterCases(b) {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c, err := NewCluster(tc.cfg)
				if err != nil {
					b.Fatal(err)
				}
				builtCluster = c
			}
		})
	}
}

// TestNewClusterAllocBudget holds the builds of BenchmarkNewCluster to
// their committed allocation and byte ceilings: one FIFO slab, one kernel
// slab and one input array per rank, FIFO headers of at most 112 bytes,
// rings allocated on first push and names formatted on demand.
// Formatting a name per FIFO, allocating per FIFO again, or a FIFO
// header regrown past its budget breaks it at once.
func TestNewClusterAllocBudget(t *testing.T) {
	for _, tc := range newClusterCases(t) {
		build := func() {
			if _, err := NewCluster(tc.cfg); err != nil {
				t.Fatal(err)
			}
		}
		if n := testing.AllocsPerRun(5, build); n > tc.maxAllocs {
			t.Errorf("%s: %v allocations per build, ceiling %v", tc.name, n, tc.maxAllocs)
		}
		if n := bytesPerRun(5, build); n > tc.maxBytes {
			t.Errorf("%s: %d bytes per build, ceiling %d", tc.name, n, tc.maxBytes)
		}
	}
}

// bytesPerRun is testing.AllocsPerRun for bytes: the mean heap bytes
// allocated by one call of f after a warm-up call, measured at
// GOMAXPROCS 1 so no other goroutine's allocations are counted.
func bytesPerRun(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}
