package apps

import (
	"fmt"

	smi "repro/internal/core"
)

// IncastResult reports an N-senders-to-one-receiver congestion
// measurement.
type IncastResult struct {
	Senders int   // concurrent senders (ranks 1..Senders)
	Elems   int   // elements per flow
	Cycles  int64 // completion cycle of the aggregator
	// FlowCycles[i] is the cycle sender i's flow finished draining at
	// the aggregator (flows drain in port order).
	FlowCycles []int64
	// TailCycles is the slowest flow's completion — the incast tail.
	TailCycles int64
	// MeanCycles averages the per-flow completions.
	MeanCycles float64
	Net        smi.Stats
}

// Incast converges one flow from each of ranks 1..senders onto rank 0,
// each carrying elems 32-bit integers on its own port. The aggregator
// drains the flows sequentially in port order — the pattern that makes
// incast pathological: every undrained flow keeps pushing into buffers
// the receiver is not reading yet, so eager senders head-of-line-block
// shared links (§3.3's motivation for credit flow control), and
// credited senders pay a round-trip per credit tile.
//
// cfg.Mode selects the per-flow machinery as in Bandwidth (use
// ModeCredited for a baseline that cannot deadlock; the default eager
// ModePacket deadlocks once the flows outgrow the buffers). BufferElems
// defaults to 256 — small enough that credits and backpressure engage
// at a few thousand elements per flow.
func Incast(cfg NetConfig, senders, elems int) (IncastResult, error) {
	if senders < 1 {
		return IncastResult{}, fmt.Errorf("apps: incast needs at least one sender, got %d", senders)
	}
	if elems < 1 {
		return IncastResult{}, fmt.Errorf("apps: incast needs at least one element per flow, got %d", elems)
	}
	ranks := make([]int, senders+1)
	for i := range ranks {
		ranks[i] = i
	}
	if err := cfg.checkRanks(ranks...); err != nil {
		return IncastResult{}, err
	}
	vec := cfg.VecWidth
	if vec <= 0 {
		vec = 8
	}
	buf := cfg.BufferElems
	if buf <= 0 {
		buf = 256
	}
	specs := make([]smi.PortSpec, senders)
	for i := range specs {
		specs[i] = smi.PortSpec{
			Port: i, Type: smi.Int, VecWidth: vec, BufferElems: buf,
			Mode: cfg.Mode, StreamBatch: cfg.StreamBatch,
		}
	}
	c, err := cfg.cluster(smi.ProgramSpec{Ports: specs})
	if err != nil {
		return IncastResult{}, err
	}
	for s := 0; s < senders; s++ {
		s := s
		c.OnRank(s+1, "incast-src", func(x *smi.Ctx) {
			ch, err := x.OpenSend(smi.ChannelOpts{Count: elems, Type: smi.Int, Dst: 0, Port: s})
			if err != nil {
				panic(err)
			}
			streamOut(ch, elems, int32(s*1_000_003))
		})
	}
	flowCycles := make([]int64, senders)
	c.OnRank(0, "incast-sink", func(x *smi.Ctx) {
		for s := 0; s < senders; s++ {
			ch, err := x.OpenRecv(smi.ChannelOpts{Count: elems, Type: smi.Int, Src: s + 1, Port: s})
			if err != nil {
				panic(err)
			}
			if i, v := streamIn(ch, elems, int32(s*1_000_003)); i >= 0 {
				panic(fmt.Sprintf("incast: flow %d element %d corrupted: %d", s, i, v))
			}
			flowCycles[s] = x.Now()
		}
	})
	st, err := c.Run()
	if err != nil {
		return IncastResult{}, err
	}
	res := IncastResult{
		Senders:    senders,
		Elems:      elems,
		Cycles:     st.Cycles,
		FlowCycles: flowCycles,
		Net:        st,
	}
	var sum int64
	for _, fc := range flowCycles {
		if fc > res.TailCycles {
			res.TailCycles = fc
		}
		sum += fc
	}
	res.MeanCycles = float64(sum) / float64(senders)
	return res, nil
}
