package smi

// chanOpts is the resolved option set of one channel open call.
type chanOpts struct {
	patience int64 // per-operation deadline in cycles; <= 0 means none
}

// ChannelOption configures an open channel call (OpenSendChannel,
// OpenRecvChannel, the collective opens, and the ChannelOpts forms).
type ChannelOption func(*chanOpts)

// WithDeadline bounds every blocking operation on the channel to at most
// the given number of cycles: an operation that cannot complete within
// that budget returns a ChannelError of kind Timeout from the E variant
// (PushE/PopE/...), or panics with it from the blocking wrapper.
//
// Deadlines are implemented as scheduled wakes on the simulator's event
// heap, not per-cycle polling: a deadline that is armed but never fires
// leaves the run cycle-identical to one without deadlines, under both
// the event and the dense scheduler.
func WithDeadline(cycles int64) ChannelOption {
	return func(o *chanOpts) { o.patience = cycles }
}

// SetDefaultDeadline sets a default per-operation deadline (in cycles)
// for every channel subsequently opened through this Ctx. Individual
// opens override it with WithDeadline; WithDeadline(0) removes it.
// cycles <= 0 clears the default.
func (x *Ctx) SetDefaultDeadline(cycles int64) {
	if cycles < 0 {
		cycles = 0
	}
	x.defPatience = cycles
}

// resolveOpts folds the Ctx default and the per-open options into the
// channel's patience. An open without options allocates nothing here.
func (x *Ctx) resolveOpts(opts []ChannelOption) int64 {
	if len(opts) == 0 {
		return x.defPatience
	}
	o := chanOpts{patience: x.defPatience}
	for _, opt := range opts {
		opt(&o)
	}
	return o.patience
}

// ChannelOpts is the options-struct form of a channel open call. Count,
// Type, and Port are always required; Dst names the destination rank for
// sends, Src the source rank for receives (both relative to Comm). A
// zero Comm means the world communicator.
type ChannelOpts struct {
	Count int
	Type  Datatype
	Dst   int // destination rank (OpenSend)
	Src   int // source rank (OpenRecv)
	Port  int
	Comm  Comm
	Opts  []ChannelOption
}

// comm returns the explicit communicator or the world default.
func (o ChannelOpts) comm(x *Ctx) Comm {
	if o.Comm == (Comm{}) {
		return x.CommWorld()
	}
	return o.Comm
}

// OpenSend opens a transient send channel from an options struct; it is
// equivalent to OpenSendChannel(o.Count, o.Type, o.Dst, o.Port, comm,
// o.Opts...).
func (x *Ctx) OpenSend(o ChannelOpts) (*SendChannel, error) {
	return x.OpenSendChannel(o.Count, o.Type, o.Dst, o.Port, o.comm(x), o.Opts...)
}

// OpenRecv opens a transient receive channel from an options struct; it
// is equivalent to OpenRecvChannel(o.Count, o.Type, o.Src, o.Port, comm,
// o.Opts...).
func (x *Ctx) OpenRecv(o ChannelOpts) (*RecvChannel, error) {
	return x.OpenRecvChannel(o.Count, o.Type, o.Src, o.Port, o.comm(x), o.Opts...)
}
