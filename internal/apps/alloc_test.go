package apps

import (
	"runtime"
	"testing"

	smi "repro/internal/core"
	"repro/internal/topology"
)

// TestPingPongRoundAllocation holds the marginal heap cost of a
// pingpong round on the 7-hop bus: (bytes of a 512-round run − bytes of
// a 64-round run) ÷ 448, measured at GOMAXPROCS 1 so no other
// goroutine's allocations count. A round opens four channels, whose
// 16-byte handles are all it should allocate; the ceiling is 80 bytes.
// Channel state kept per open instead of in the endpoint slot costs
// about 700 bytes a round.
func TestPingPongRoundAllocation(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	cfg := netCfg(t, func() (*topology.Topology, error) { return topology.Bus(8) })
	runBytes := func(rounds int) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := PingPong(cfg, 0, 7, rounds); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	runBytes(64) // warm-up: one-time package and runtime allocations
	short, long := runBytes(64), runBytes(512)
	perRound := (float64(long) - float64(short)) / 448
	t.Logf("%.1f heap bytes per round", perRound)
	if perRound > 80 {
		t.Errorf("%.1f heap bytes per pingpong round (%d B for 512 rounds, %d B for 64), want at most 80",
			perRound, long, short)
	}
}

// TestStreamBytesFlat holds a bulk transfer's host memory to a fixed
// staging chunk: at GOMAXPROCS 1, the heap bytes of a Bandwidth run of
// 262 144 elements may exceed those of a 65 536-element run by at most
// 16 KiB, in packet and in streaming mode, and likewise an Incast of
// 16 384 against 4 096 elements per flow. Sources and sinks that hold
// the whole message grow by 8 bytes per element, about 1.5 MB here.
func TestStreamBytesFlat(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const slack = 16 << 10
	runBytes := func(run func() error) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := run(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	check := func(name string, run func(elems int) error, short, long int) {
		run(short) // warm-up: one-time package and runtime allocations
		a := runBytes(func() error { return run(short) })
		b := runBytes(func() error { return run(long) })
		t.Logf("%s: %d B at %d elements, %d B at %d", name, a, short, b, long)
		if b > a+slack {
			t.Errorf("%s: %d B at %d elements against %d B at %d: grows by %d B, want at most %d",
				name, b, long, a, short, b-a, slack)
		}
	}
	bus := netCfg(t, func() (*topology.Topology, error) { return topology.Bus(8) })
	for _, mode := range []smi.Mode{smi.ModePacket, smi.ModeStreaming} {
		cfg := bus
		cfg.Mode = mode
		check("bandwidth/"+mode.String(), func(elems int) error {
			_, err := Bandwidth(cfg, 0, 7, elems)
			return err
		}, 65_536, 262_144)
	}
	incast := netCfg(t, func() (*topology.Topology, error) { return topology.Bus(4) })
	incast.Mode = smi.ModeCredited
	check("incast", func(elems int) error {
		_, err := Incast(incast, 3, elems)
		return err
	}, 4_096, 16_384)
}
