package smi

import (
	"testing"

	"repro/internal/topology"
)

// TestGenericPushPopAllTypes round-trips every supported element type
// through the generic Push[T]/Pop[T] pair.
func TestGenericPushPopAllTypes(t *testing.T) {
	run := func(name string, dt Datatype, send func(*SendChannel, int), recv func(*RecvChannel, int) bool) {
		t.Run(name, func(t *testing.T) {
			topo, err := topology.Bus(2)
			if err != nil {
				t.Fatal(err)
			}
			c, err := NewCluster(Config{
				Topology: topo,
				Program:  ProgramSpec{Ports: []PortSpec{{Port: 0, Type: dt}}},
			})
			if err != nil {
				t.Fatal(err)
			}
			const n = 50
			c.OnRank(0, "tx", func(x *Ctx) {
				ch, err := x.OpenSend(ChannelOpts{Count: n, Type: dt, Dst: 1, Port: 0})
				if err != nil {
					t.Error(err)
					return
				}
				for i := 0; i < n; i++ {
					send(ch, i)
				}
			})
			c.OnRank(1, "rx", func(x *Ctx) {
				ch, err := x.OpenRecv(ChannelOpts{Count: n, Type: dt, Src: 0, Port: 0})
				if err != nil {
					t.Error(err)
					return
				}
				for i := 0; i < n; i++ {
					if !recv(ch, i) {
						t.Errorf("element %d corrupted", i)
						return
					}
				}
			})
			if _, err := c.Run(); err != nil {
				t.Fatal(err)
			}
		})
	}

	run("char", Char,
		func(ch *SendChannel, i int) { Push(ch, byte(i)) },
		func(ch *RecvChannel, i int) bool { return Pop[byte](ch) == byte(i) })
	run("short", Short,
		func(ch *SendChannel, i int) { Push(ch, int16(i-25)) },
		func(ch *RecvChannel, i int) bool { return Pop[int16](ch) == int16(i-25) })
	run("int", Int,
		func(ch *SendChannel, i int) { Push(ch, int32(i*3)) },
		func(ch *RecvChannel, i int) bool { return Pop[int32](ch) == int32(i*3) })
	run("float", Float,
		func(ch *SendChannel, i int) { Push(ch, float32(i)/4) },
		func(ch *RecvChannel, i int) bool { return Pop[float32](ch) == float32(i)/4 })
	run("double", Double,
		func(ch *SendChannel, i int) { Push(ch, float64(i)*1.5) },
		func(ch *RecvChannel, i int) bool { return Pop[float64](ch) == float64(i)*1.5 })
}
