// Package smi implements the Streaming Message Interface (SMI): a
// distributed-memory communication model and API for reconfigurable
// hardware, reproducing De Matteis, de Fine Licht, Beránek and Hoefler,
// "Streaming Message Interface: High-Performance Distributed Memory
// Programming on Reconfigurable Hardware" (SC 2019).
//
// SMI unifies message passing and streaming: instead of bulk buffered
// transfers, messages are transient channels streamed element by element
// during pipelined computation. A send or receive is set up first
// (OpenSendChannel / OpenRecvChannel — zero-overhead, like starting a
// non-blocking MPI operation without implying the data is ready), and
// data is then pushed or popped cycle by cycle. Routing between ranks is
// handled transparently by a transport layer of communication kernels
// (internal/transport) over runtime-configurable routing tables
// (internal/routing), so the interconnect topology is not baked into the
// program: the same "bitstream" (here, the same Cluster program) runs on
// a torus, a bus, or any other wiring, and the set of ranks can change
// without recompilation.
//
// Because the original system is an HLS library synthesized to Stratix
// 10 FPGAs, this reproduction executes programs on a deterministic
// cycle-driven simulator (internal/sim). Rank programs are ordinary Go
// functions run as cooperative processes; every Push and Pop costs clock
// cycles exactly as the hardware pipeline would, and all transport
// behaviour (packet switching, CKS/CKR polling, credit-based collective
// flow control) is modeled at cycle granularity.
//
// A minimal two-rank program (paper Listing 1):
//
//	topo, _ := topology.Bus(2)
//	cluster, _ := smi.NewCluster(smi.Config{
//		Topology: topo,
//		Program:  smi.ProgramSpec{Ports: []smi.PortSpec{{Port: 0}}},
//	})
//	cluster.OnRank(0, "rank0", func(x *smi.Ctx) {
//		ch, _ := x.OpenSendChannel(n, smi.Int, 1, 0, x.CommWorld())
//		for i := 0; i < n; i++ {
//			smi.Push(ch, int32(i))
//		}
//	})
//	cluster.OnRank(1, "rank1", func(x *smi.Ctx) {
//		ch, _ := x.OpenRecvChannel(n, smi.Int, 0, 0, x.CommWorld())
//		for i := 0; i < n; i++ {
//			_ = smi.Pop[int32](ch)
//		}
//	})
//	stats, _ := cluster.Run()
package smi
