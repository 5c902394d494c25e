package smi

import "repro/internal/packet"

// Element constrains the Go types that map onto SMI datatypes: byte
// (Char), int16 (Short), int32 (Int), float32 (Float), float64
// (Double).
type Element interface {
	byte | int16 | int32 | float32 | float64
}

// elemBits converts a typed element to its raw wire bits.
func elemBits[T Element](v T) uint64 {
	switch x := any(v).(type) {
	case byte:
		return uint64(x)
	case int16:
		return packet.ShortBits(x)
	case int32:
		return packet.IntBits(x)
	case float32:
		return packet.FloatBits(x)
	default:
		return packet.DoubleBits(any(v).(float64))
	}
}

// bitsElem converts raw wire bits back to a typed element.
func bitsElem[T Element](bits uint64) T {
	var v T
	switch p := any(&v).(type) {
	case *byte:
		*p = byte(bits)
	case *int16:
		*p = packet.BitsShort(bits)
	case *int32:
		*p = packet.BitsInt(bits)
	case *float32:
		*p = packet.BitsFloat(bits)
	case *float64:
		*p = packet.BitsDouble(bits)
	}
	return v
}

// Push streams one typed element into a send channel. Go methods cannot
// be generic, so the typed push is a package-level helper.
func Push[T Element](ch *SendChannel, v T) { ch.Push(elemBits(v)) }

// PushE is Push with the recoverable error surface of SendChannel.PushE.
func PushE[T Element](ch *SendChannel, v T) error { return ch.PushE(elemBits(v)) }

// Pop blocks until the next element arrives and returns it typed.
func Pop[T Element](ch *RecvChannel) T { return bitsElem[T](ch.Pop()) }

// PopE is Pop with the recoverable error surface of RecvChannel.PopE.
func PopE[T Element](ch *RecvChannel) (T, error) {
	bits, err := ch.PopE()
	if err != nil {
		var zero T
		return zero, err
	}
	return bitsElem[T](bits), nil
}

// PushSlice pushes every element of vs in order: the typed face of
// SendChannel.PushN. It returns how many elements were consumed and the
// first error; on error the remainder (vs[n:]) may be retried.
func PushSlice[T Element](ch *SendChannel, vs []T) (int, error) {
	st := ch.state()
	view := typedView[T](&st.ep.pushView)
	view.vs = vs
	s := st.x.pushPath(st)
	s.begin(view)
	st.x.proc.Run(s)
	view.vs = nil
	return s.end()
}

// PopSlice fills vs in order: the typed face of RecvChannel.PopN. It
// returns how many elements were delivered and the first error; on
// error the remainder (vs[n:]) may be retried.
func PopSlice[T Element](ch *RecvChannel, vs []T) (int, error) {
	st := ch.state()
	view := typedView[T](&st.ep.popView)
	view.vs = vs
	s := st.x.popPath(st)
	s.begin(view)
	st.x.proc.Run(s)
	view.vs = nil
	return s.end()
}

// elems is the element slice of a bulk call, read and written as raw
// bits by the channel paths.
type elems interface {
	len() int
	get(i int) uint64
	set(i int, bits uint64)
}

// bitsElems are raw bits (PushN, PopN and the one-element calls).
type bitsElems struct{ vs []uint64 }

func (e *bitsElems) len() int               { return len(e.vs) }
func (e *bitsElems) get(i int) uint64       { return e.vs[i] }
func (e *bitsElems) set(i int, bits uint64) { e.vs[i] = bits }

// typedElems are PushSlice's or PopSlice's typed elements, converted one
// at a time as the path reaches them.
type typedElems[T Element] struct{ vs []T }

func (e *typedElems[T]) len() int               { return len(e.vs) }
func (e *typedElems[T]) get(i int) uint64       { return elemBits(e.vs[i]) }
func (e *typedElems[T]) set(i int, bits uint64) { e.vs[i] = bitsElem[T](bits) }

// typedView returns the endpoint's view for element type T, made on the
// first bulk call of that type on that endpoint direction and reused by
// every later one: a bulk call allocates nothing. A direction has one
// open channel at a time, and the view is released before the next can
// open.
func typedView[T Element](cache *any) *typedElems[T] {
	view, ok := (*cache).(*typedElems[T])
	if !ok {
		view = new(typedElems[T])
		*cache = view
	}
	return view
}
