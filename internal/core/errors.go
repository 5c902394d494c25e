package smi

import (
	"errors"
	"fmt"

	"repro/internal/routing"
	"repro/internal/sim"
)

// ErrorKind classifies the runtime failures a channel operation can
// observe. Programming errors (pushing past count, popping on the wrong
// channel kind, protocol violations) still panic: they are bugs in the
// rank program, not conditions a correct program can recover from.
type ErrorKind uint8

const (
	// Timeout: the operation's deadline (WithDeadline / the Ctx default)
	// expired before the transport made progress.
	Timeout ErrorKind = iota + 1
	// PeerUnreachable: the routing tables have no path between this rank
	// and the channel's peer, so the operation can never complete.
	PeerUnreachable
	// ClusterFailed: the fault manager declared the cluster failed (a
	// permanent link death whose repair was impossible); every pending
	// and future channel operation observes this.
	ClusterFailed
)

func (k ErrorKind) String() string {
	switch k {
	case Timeout:
		return "timeout"
	case PeerUnreachable:
		return "peer unreachable"
	case ClusterFailed:
		return "cluster failed"
	default:
		return fmt.Sprintf("ErrorKind(%d)", uint8(k))
	}
}

// ChannelError is the typed, recoverable error surface of the channel
// API: PushE/PopE (and the collective E variants) return it when a
// runtime failure — not a programming error — prevents the operation.
// The blocking wrappers (Push/Pop/...) panic with it instead.
type ChannelError struct {
	Kind  ErrorKind
	Op    string // "push", "pop", "bcast", "reduce", ...
	Rank  int    // rank that observed the failure
	Port  int
	Peer  int   // peer rank, or -1 when not applicable (collectives)
	Cycle int64 // simulation cycle at which the failure was observed
}

func (e *ChannelError) Error() string {
	if e.Peer >= 0 {
		return fmt.Sprintf("smi: rank %d port %d: %s with rank %d failed at cycle %d: %s",
			e.Rank, e.Port, e.Op, e.Peer, e.Cycle, e.Kind)
	}
	return fmt.Sprintf("smi: rank %d port %d: %s failed at cycle %d: %s",
		e.Rank, e.Port, e.Op, e.Cycle, e.Kind)
}

// IsTimeout reports whether err is a ChannelError of kind Timeout.
func IsTimeout(err error) bool { return errKind(err) == Timeout }

// IsPeerUnreachable reports whether err is a ChannelError of kind
// PeerUnreachable.
func IsPeerUnreachable(err error) bool { return errKind(err) == PeerUnreachable }

// IsClusterFailed reports whether err is a ChannelError of kind
// ClusterFailed.
func IsClusterFailed(err error) bool { return errKind(err) == ClusterFailed }

func errKind(err error) ErrorKind {
	var ce *ChannelError
	if errors.As(err, &ce) {
		return ce.Kind
	}
	return 0
}

// chanErr builds a ChannelError stamped with the current cycle.
func (x *Ctx) chanErr(kind ErrorKind, op string, port, peer int) *ChannelError {
	return &ChannelError{Kind: kind, Op: op, Rank: x.rank, Port: port, Peer: peer, Cycle: x.Now()}
}

// runtimeErr performs the entry checks every channel operation makes
// before touching the transport: a failed cluster poisons all traffic,
// and an unroutable peer can never be reached. peer < 0 skips the
// reachability check (collectives route via their support kernels).
func (x *Ctx) runtimeErr(op string, port, peer int) error {
	if x.c.Failed() {
		return x.chanErr(ClusterFailed, op, port, peer)
	}
	if peer >= 0 && peer != x.rank && x.c.routes.At(x.rank, peer) == routing.Unreachable {
		return x.chanErr(PeerUnreachable, op, port, peer)
	}
	return nil
}

// peerErr is runtimeErr for a point-to-point channel's element: a
// channel remembers (in reached) the route epoch at which its peer was
// last found reachable, so the table lookup is made again only after
// the routing tables change.
func (x *Ctx) peerErr(op string, port, peer int, reached *uint32) error {
	if epoch := x.c.routeEpoch; *reached != epoch {
		if err := x.runtimeErr(op, port, peer); err != nil {
			return err
		}
		*reached = epoch
		return nil
	}
	if x.c.Failed() {
		return x.chanErr(ClusterFailed, op, port, peer)
	}
	return nil
}

// waitErr maps a failed cancellable FIFO wait to the channel error
// surface: a timeout keeps its own kind; an engine-level abort is only
// ever issued by the fault manager on cluster failure.
func (x *Ctx) waitErr(res sim.WaitResult, op string, port, peer int) error {
	switch res {
	case sim.WaitTimeout:
		return x.chanErr(Timeout, op, port, peer)
	case sim.WaitAborted:
		return x.chanErr(ClusterFailed, op, port, peer)
	default:
		return nil
	}
}
