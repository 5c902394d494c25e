package routing

import (
	"fmt"
	"math/bits"
	"strings"
)

// CycleError reports a channel-dependency cycle: a set of directed links
// that can all be waiting for buffer space in each other, i.e. a
// potential routing deadlock.
type CycleError struct {
	Cycle []string // directed channels forming the cycle
}

func (e *CycleError) Error() string {
	return fmt.Sprintf("routing: channel dependency cycle: %s", strings.Join(e.Cycle, " -> "))
}

// VerifyDeadlockFree builds the channel dependency graph induced by the
// routes — for every source/destination pair, each consecutive pair of
// links on the path adds a dependency edge — and searches it for cycles.
// A nil return proves the route set cannot deadlock under wormhole/
// credit-based flow control; a CycleError pinpoints one offending cycle.
//
// A channel is device dev transmitting on its local interface iface,
// numbered dev*Ifaces+iface and named "dev:iface". Every channel a
// channel c feeds belongs to the device at c's far end, so c's
// dependencies are a bitset over that device's interfaces. The search
// starts from the channels in number order and tries dependencies in
// interface order, and names the first cycle it closes.
func VerifyDeadlockFree(r *Routes) error {
	ifaces := r.Ifaces
	n := r.Devices * ifaces
	words := (ifaces + 63) / 64
	// peer[c] is the device at the far end of channel c (-1 uncabled).
	peer := make([]int, n)
	for c := range peer {
		peer[c] = -1
	}
	for _, cn := range r.topo.Connections {
		peer[cn.A.Device*ifaces+cn.A.Iface] = cn.B.Device
		peer[cn.B.Device*ifaces+cn.B.Iface] = cn.A.Device
	}
	// deps[c*words:(c+1)*words] holds bit j when a route leaves on c and
	// goes on through interface j of c's peer. A route enters every
	// device on its path, so the edges of all source/destination paths
	// are those of each device's first hop toward each destination.
	deps := make([]uint64, n*words)
	for dev, next := range r.Next {
		for dst, i := range next {
			if dev == dst || i < 0 {
				continue
			}
			c := dev*ifaces + i
			if i >= ifaces || peer[c] < 0 {
				return fmt.Errorf("routing: device %d forwards to %d on interface %d, which has no cable", dev, dst, i)
			}
			p := peer[c]
			if p == dst {
				continue
			}
			// An out-of-range j is reported when the loop reaches (p, dst).
			if j := r.Next[p][dst]; j >= 0 && j < ifaces {
				deps[c*words+j/64] |= 1 << (j % 64)
			}
		}
	}
	// nextDep returns the first interface ≥ j in c's dependencies, or -1.
	nextDep := func(c, j int) int {
		set := deps[c*words : (c+1)*words]
		for w := j / 64; w < words; w++ {
			if m := set[w] &^ (1<<(j%64) - 1); m != 0 {
				return w*64 + bits.TrailingZeros64(m)
			}
			j = (w + 1) * 64
		}
		return -1
	}

	// Iterative depth-first search; a frame is a channel and the next
	// interface of its peer to try.
	const (
		white = iota
		gray
		black
	)
	color := make([]uint8, n)
	type frame struct{ c, j int }
	var stack []frame
	for root := range color {
		if color[root] != white {
			continue
		}
		color[root] = gray
		stack = append(stack[:0], frame{root, 0})
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			j := nextDep(f.c, f.j)
			if j < 0 {
				color[f.c] = black
				stack = stack[:len(stack)-1]
				continue
			}
			f.j = j + 1
			d := peer[f.c]*ifaces + j
			switch color[d] {
			case white:
				color[d] = gray
				stack = append(stack, frame{d, 0})
			case gray:
				start := 0
				for k, s := range stack {
					if s.c == d {
						start = k
						break
					}
				}
				var cyc []string
				for _, s := range stack[start:] {
					cyc = append(cyc, chanName(s.c, ifaces))
				}
				cyc = append(cyc, chanName(d, ifaces))
				return &CycleError{Cycle: cyc}
			}
		}
	}
	return nil
}

// chanName names channel c as "dev:iface".
func chanName(c, ifaces int) string { return fmt.Sprintf("%d:%d", c/ifaces, c%ifaces) }
