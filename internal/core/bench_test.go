package smi

import "testing"

// BenchmarkChannelPushPop is one element end to end at steady state:
// SendChannel.Push -> CKS -> link -> CKR -> RecvChannel.Pop on a 2-rank
// bus, b.N elements streamed over one channel pair. It is the core-layer
// cost that sits on top of sim's BenchmarkProcTick in a proc-dominated
// workload such as the stencil.
func BenchmarkChannelPushPop(b *testing.B) {
	c := busCluster(b, 2, PortSpec{Port: 0, Type: Int})
	c.OnRank(0, "send", func(x *Ctx) {
		ch, err := x.OpenSendChannel(b.N, Int, 1, 0, x.CommWorld())
		if err != nil {
			b.Error(err)
			return
		}
		for i := 0; i < b.N; i++ {
			Push(ch, int32(i))
		}
	})
	c.OnRank(1, "recv", func(x *Ctx) {
		ch, err := x.OpenRecvChannel(b.N, Int, 0, 0, x.CommWorld())
		if err != nil {
			b.Error(err)
			return
		}
		for i := 0; i < b.N; i++ {
			Pop[int32](ch)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	if _, err := c.Run(); err != nil {
		b.Fatal(err)
	}
}
