package smi

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/topology"
)

// TestTerminationParity pins the three abnormal ways a run can end —
// deadlock, cycle limit, rank-program panic — to the same outcome under
// the event engine and the parallel driver (2 workers over 4 per-rank
// engines), which decides them at round barriers instead of in the
// engine loop.
func TestTerminationParity(t *testing.T) {
	wantMaxCycles := func(t *testing.T, event, adaptive error) {
		if !errors.Is(event, sim.ErrMaxCycles) || !errors.Is(adaptive, sim.ErrMaxCycles) {
			t.Fatalf("want ErrMaxCycles twice, got event %v, adaptive %v", event, adaptive)
		}
		if event.Error() != adaptive.Error() {
			t.Errorf("event %q, adaptive %q", event, adaptive)
		}
	}
	for _, tc := range []struct {
		name      string
		maxCycles int64
		program   func(c *Cluster)
		check     func(t *testing.T, event, adaptive error)
		// sameCycle: the quoted cycle is exact under both schedulers (a
		// group deadlock is quoted at the round barrier it quiesced at).
		sameCycle bool
	}{
		{
			name: "deadlock",
			program: func(c *Cluster) {
				c.OnRank(1, "orphan", func(x *Ctx) {
					ch, _ := x.OpenRecvChannel(4, Int, 0, 0, x.CommWorld())
					Pop[int32](ch) // rank 0 never sends
				})
				c.OnRank(2, "done", func(*Ctx) {})
			},
			check: func(t *testing.T, event, adaptive error) {
				var de, da *sim.DeadlockError
				if !errors.As(event, &de) || !errors.As(adaptive, &da) {
					t.Fatalf("want *sim.DeadlockError twice, got event %v, adaptive %v", event, adaptive)
				}
				if len(de.Blocked) != 1 || !reflect.DeepEqual(de.Blocked, da.Blocked) {
					t.Errorf("blocked procs differ: event %q, adaptive %q", de.Blocked, da.Blocked)
				}
			},
		},
		{
			// Every rank stays busy, so no engine fast-forwards across the
			// limit.
			name:      "max-cycles",
			maxCycles: 2500,
			program: func(c *Cluster) {
				c.SPMD("slow", func(x *Ctx) {
					for i := 0; i < 10_000; i++ {
						x.Sleep(1)
					}
				})
			},
			check:     wantMaxCycles,
			sameCycle: true,
		},
		{
			// Every rank sleeps through the limit: the idle fast-forward
			// stops at MaxCycles instead of landing on the far wake-up.
			name:      "idle-skip across the limit",
			maxCycles: 2500,
			program: func(c *Cluster) {
				c.SPMD("sleeper", func(x *Ctx) { x.Sleep(10_000) })
			},
			check:     wantMaxCycles,
			sameCycle: true,
		},
		{
			// Rank 2 stays busy, which keeps rank 3's engine one link
			// latency (110 cycles) behind rank 0's: rank 0 hits its later
			// panic in a round whose window ends before rank 3's earlier
			// one, and the driver must still run rank 3 up to the failure
			// cycle so the earlier panic wins, as it does in one engine.
			name: "panic",
			program: func(c *Cluster) {
				c.OnRank(0, "late", func(x *Ctx) { x.Sleep(3150); panic("late") })
				c.OnRank(2, "busy", func(x *Ctx) {
					for i := 0; i < 5000; i++ {
						x.Sleep(1)
					}
				})
				c.OnRank(3, "early", func(x *Ctx) { x.Sleep(3100); panic("early") })
			},
			check: func(t *testing.T, event, adaptive error) {
				first := func(err error) string {
					if err == nil {
						return "<nil>"
					}
					return strings.SplitN(err.Error(), "\n", 2)[0] // drop the stack
				}
				if want := "sim: proc r3.early: panic: early"; first(event) != want || first(adaptive) != want {
					t.Errorf("want %q twice, got event %q, adaptive %q", want, first(event), first(adaptive))
				}
			},
			sameCycle: true,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(kind sim.SchedulerKind, shards int) (Stats, error) {
				topo, err := topology.Bus(4)
				if err != nil {
					t.Fatal(err)
				}
				c, err := NewCluster(Config{
					Topology:  topo,
					Program:   ProgramSpec{Ports: []PortSpec{{Port: 0, Type: Int}}},
					Scheduler: kind,
					Shards:    shards,
					MaxCycles: tc.maxCycles,
				})
				if err != nil {
					t.Fatal(err)
				}
				tc.program(c)
				return c.Run()
			}
			evSt, evErr := run(sim.SchedEvent, 0)
			adSt, adErr := run(sim.SchedShardAdaptive, 2)
			tc.check(t, evErr, adErr)
			if tc.sameCycle && evSt.Cycles != adSt.Cycles {
				t.Errorf("event stopped at cycle %d, adaptive at %d", evSt.Cycles, adSt.Cycles)
			}
			if adSt.Sched.Shards != 2 {
				t.Errorf("adaptive leg ran %d workers, want 2", adSt.Sched.Shards)
			}
		})
	}
}

// TestShardsNeedParallelScheduler: Shards means shard-adaptive worker
// slots and nothing else, so any other scheduler rejects it at build
// time instead of building an untested engine layout.
func TestShardsNeedParallelScheduler(t *testing.T) {
	topo, err := topology.Bus(4)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []sim.SchedulerKind{sim.SchedEvent, sim.SchedDense} {
		_, err := NewCluster(Config{
			Topology:  topo,
			Program:   ProgramSpec{Ports: []PortSpec{{Port: 0, Type: Int}}},
			Scheduler: kind,
			Shards:    2,
		})
		if err == nil || !strings.Contains(err.Error(), sim.SchedShardAdaptive.String()) {
			t.Errorf("%s with Shards=2: err = %v, want an error naming %s", kind, err, sim.SchedShardAdaptive)
		}
	}
}
