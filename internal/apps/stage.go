package apps

import smi "repro/internal/core"

// stageElems is the staging chunk of the bulk sources and sinks. A
// source fills it and pushes it, a sink pops into it and checks it, one
// chunk at a time, so a transfer holds this many elements on the host
// whatever its length: the network sees the same stream of elements.
const stageElems = 1024

// streamOut pushes elems elements base, base+1, ... into ch, one
// staging chunk at a time.
func streamOut(ch *smi.SendChannel, elems int, base int32) {
	stage := make([]int32, min(elems, stageElems))
	for off := 0; off < elems; off += len(stage) {
		chunk := stage[:min(len(stage), elems-off)]
		for i := range chunk {
			chunk[i] = base + int32(off+i)
		}
		if _, err := smi.PushSlice(ch, chunk); err != nil {
			panic(err)
		}
	}
}

// streamIn pops elems elements from ch one staging chunk at a time and
// checks each against base plus its index. It returns the index and
// value of the first element that does not match, or -1 if all do.
func streamIn(ch *smi.RecvChannel, elems int, base int32) (int, int32) {
	stage := make([]int32, min(elems, stageElems))
	for off := 0; off < elems; off += len(stage) {
		chunk := stage[:min(len(stage), elems-off)]
		if _, err := smi.PopSlice(ch, chunk); err != nil {
			panic(err)
		}
		for i, v := range chunk {
			if v != base+int32(off+i) {
				return off + i, v
			}
		}
	}
	return -1, 0
}
