package apps

import (
	"runtime"
	"testing"

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
