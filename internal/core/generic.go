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
	for i, v := range vs {
		if err := ch.PushE(elemBits(v)); err != nil {
			return i, err
		}
	}
	return len(vs), nil
}

// PopSlice fills vs in order: the typed face of RecvChannel.PopN. It
// returns how many elements were delivered and the first error; on
// error the remainder (vs[n:]) may be retried.
func PopSlice[T Element](ch *RecvChannel, vs []T) (int, error) {
	for i := range vs {
		bits, err := ch.PopE()
		if err != nil {
			return i, err
		}
		vs[i] = bitsElem[T](bits)
	}
	return len(vs), nil
}
