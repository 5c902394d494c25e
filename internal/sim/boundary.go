package sim

import "fmt"

// Boundary is the one legal channel for state to cross between engine
// shards: a single-producer single-consumer queue of timestamped
// entries with a fixed minimum latency. The producing engine Puts
// entries during its window; the consuming engine sees an entry only
// once its readyAt cycle is due. Entries become visible to the consumer
//
//   - immediately (gated by readyAt) when both halves live on the same
//     engine, exactly like an in-kernel delay line, or
//   - at the next group barrier when the halves live on different
//     engines. Because every entry's readyAt lies at least `latency`
//     cycles after its Put and windows are no longer than the smallest
//     boundary latency, a barrier flush always publishes entries before
//     the consumer's clock can reach them — the conservative-lookahead
//     invariant that makes sharded runs bit-identical to the dense scan.
//
// A Boundary wakes the consumer kernel (wakeKernelAt) when entries
// become visible, so parked consumers resume exactly at readyAt.
type Boundary[T any] struct {
	src, dst *Engine
	dstK     KernelID
	latency  int64

	// Entries visible to the consumer: a power-of-two ring holding n
	// entries from index first, so steady-state Put/PopReady allocate
	// nothing (the ring only ever grows to the peak in-flight count).
	ring     []boundaryEntry[T]
	first, n int
	tail     []boundaryEntry[T] // produced this window, not yet flushed
}

type boundaryEntry[T any] struct {
	v       T
	readyAt int64
}

// boundaryFlusher is the untyped view of a Boundary the Group drives at
// barriers.
type boundaryFlusher interface {
	flush()
	Latency() int64
}

// boundaryInlet is the consumer-side untyped view the destination
// engine's earliestEvent merges: pending arrivals are future work even
// when every local proc and kernel is quiescent. The adaptive group
// driver additionally reads the producing engine and the crossing
// latency to compute the consumer's per-boundary safe horizon.
type boundaryInlet interface {
	NextReadyAt() int64
	srcEngine() *Engine
	Latency() int64
}

// NewBoundary creates a boundary whose producer runs on src and whose
// consumer is kernel dstK on dst. Entries Put at cycle t become
// consumable at t+latency. The boundary registers itself with the
// source engine so a Group covering both engines flushes it at every
// barrier; when src == dst no flushing is needed and Puts land in head
// directly.
func NewBoundary[T any](src, dst *Engine, dstK KernelID, latency int64) *Boundary[T] {
	if latency < 1 {
		latency = 1
	}
	b := &Boundary[T]{src: src, dst: dst, dstK: dstK, latency: latency}
	if src != dst {
		src.boundaries = append(src.boundaries, b)
		dst.inBoundaries = append(dst.inBoundaries, b)
	}
	return b
}

// Latency returns the boundary's minimum crossing latency in cycles.
func (b *Boundary[T]) Latency() int64 { return b.latency }

// srcEngine returns the producing engine (boundaryInlet view).
func (b *Boundary[T]) srcEngine() *Engine { return b.src }

// publish appends ent to the consumer-visible ring, doubling it when full.
func (b *Boundary[T]) publish(ent boundaryEntry[T]) {
	if b.n == len(b.ring) {
		grown := make([]boundaryEntry[T], max(4, 2*len(b.ring)))
		k := copy(grown, b.ring[b.first:])
		copy(grown[k:], b.ring[:b.first])
		b.ring, b.first = grown, 0
	}
	b.ring[(b.first+b.n)&(len(b.ring)-1)] = ent
	b.n++
}

// Put appends v with readyAt = now+latency. Must be called from the
// source engine's thread (its kernel or proc phases).
func (b *Boundary[T]) Put(now int64, v T) {
	ent := boundaryEntry[T]{v: v, readyAt: now + b.latency}
	if b.src == b.dst {
		b.publish(ent)
		// The consumer may be parked waiting for exactly this arrival.
		b.src.wakeKernelAt(b.dstK, ent.readyAt)
		return
	}
	b.tail = append(b.tail, ent)
}

// flush publishes the producer's window output to the consumer and
// schedules the consumer kernel at the first new entry's ready cycle.
// Called by the Group at barriers, with all engines stopped. The
// readyAt check is the conservative-lookahead safety invariant: an
// entry published after the consumer's clock passed its ready cycle
// would change simulated history, so a violation is a scheduler bug
// (a window horizon exceeded the per-boundary safe bound), never a
// recoverable condition.
func (b *Boundary[T]) flush() {
	if len(b.tail) == 0 {
		return
	}
	if b.tail[0].readyAt < b.dst.now {
		panic(fmt.Sprintf("sim: boundary flush violates lookahead: entry ready at %d, consumer already at %d (latency %d)",
			b.tail[0].readyAt, b.dst.now, b.latency))
	}
	for _, ent := range b.tail {
		b.publish(ent)
	}
	b.dst.wakeKernelAt(b.dstK, b.tail[0].readyAt)
	b.tail = b.tail[:0]
}

// Clear drops every entry on both sides of the boundary. Used when the
// attached hardware is parked for repair (e.g. a failed cable): in-flight
// traffic is lost, exactly like the monolithic wire model it replaces.
func (b *Boundary[T]) Clear() {
	b.first, b.n = 0, 0
	b.tail = b.tail[:0]
}

// Len returns the number of entries visible to the consumer.
func (b *Boundary[T]) Len() int { return b.n }

// Pending returns the number of unflushed (produced this window)
// entries; consumer-side callers must treat it as zero.
func (b *Boundary[T]) Pending() int { return len(b.tail) }

// PeekReady returns the oldest entry if its readyAt is due.
func (b *Boundary[T]) PeekReady(now int64) (T, bool) {
	var zero T
	if b.n == 0 || b.ring[b.first].readyAt > now {
		return zero, false
	}
	return b.ring[b.first].v, true
}

// PopReady removes and returns the oldest entry if its readyAt is due.
func (b *Boundary[T]) PopReady(now int64) (T, bool) {
	v, ok := b.PeekReady(now)
	if ok {
		b.first = (b.first + 1) & (len(b.ring) - 1)
		b.n--
	}
	return v, ok
}

// NextReadyAt returns the readyAt of the oldest visible entry, or Never
// if none is visible — the consumer's IdleUntil contribution.
func (b *Boundary[T]) NextReadyAt() int64 {
	if b.n == 0 {
		return Never
	}
	return b.ring[b.first].readyAt
}
