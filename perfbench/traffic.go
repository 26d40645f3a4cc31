package main

import (
	"fmt"

	"repro/internal/comm"
	"repro/internal/reduce"
)

// The analytic traffic of the flat ring schedules comm runs, per rank
// and collective call over n elements in a world of k: which
// comm.ChunkBounds chunks the rank sends, and in how many frames.

func chunkLen(n, k, i int) int {
	lo, hi := comm.ChunkBounds(n, k, ((i%k)+k)%k)
	return hi - lo
}

// ringPhaseSends is one ring phase: k-1 steps, the chunk sent at step s
// being first-s.
func ringPhaseSends(n, k, first int) int {
	elems := 0
	for s := 0; s < k-1; s++ {
		elems += chunkLen(n, k, first-s)
	}
	return elems
}

// allReduceSends is ring AllReduce: a reduce-scatter phase starting at
// the rank's own chunk, then an all-gather phase starting at the chunk
// after it. At world 2 that is one gradient's worth per rank.
func allReduceSends(n, k, rank int) (elems, frames int) {
	return ringPhaseSends(n, k, rank) + ringPhaseSends(n, k, rank+1), 2 * (k - 1)
}

// reduceScatterVSends is the owned reduce-scatter: the ring
// reduce-scatter phase plus one rotation hop that moves each finished
// chunk to its owner. At world 2 the hop makes it a full bucket per
// rank, not half.
func reduceScatterVSends(n, k, rank int) (elems, frames int) {
	return ringPhaseSends(n, k, rank) + chunkLen(n, k, rank+1), k
}

// allGatherVSends is the owned all-gather: k-1 verbatim hops starting
// at the rank's own chunk; half a bucket per rank at world 2.
func allGatherVSends(n, k, rank int) (elems, frames int) {
	return ringPhaseSends(n, k, rank), k - 1
}

// expectedTraffic is what one rank's comm and transport layers must
// report for one training step, derived from the bucket layout alone:
// DDP AllReduces every bucket once; ZeRO-3 gathers every bucket's
// parameters twice (forward, and again in backward) and reduce-scatters
// every bucket's gradients once.
func expectedTraffic(s Strategy, assign *reduce.Assignment, rank, header int) Traffic {
	var t Traffic
	add := func(op, n int, sends func(n, k, rank int) (int, int)) {
		elems, frames := sends(n, world, rank)
		t.Calls[op]++
		t.CommBytes += 4 * int64(n)
		t.Frames += frames
		t.Payload += 4 * int64(elems)
		t.Wire += 4*int64(elems) + int64(header*frames)
	}
	for _, n := range assign.BucketElems {
		switch s {
		case DDP:
			add(opAllReduce, n, allReduceSends)
		case ZeRO3:
			add(opAllGatherV, n, allGatherVSends)
			add(opAllGatherV, n, allGatherVSends)
			add(opReduceScatterV, n, reduceScatterVSends)
		}
	}
	return t
}

// counts is the part of Traffic that must repeat exactly: everything
// but the timings.
func (t Traffic) counts() Traffic {
	return Traffic{Calls: t.Calls, CommBytes: t.CommBytes, Frames: t.Frames, Payload: t.Payload, Wire: t.Wire}
}

func (t Traffic) String() string {
	return fmt.Sprintf("calls %v, comm %d B, %d frames, payload %d B, wire %d B",
		t.Calls, t.CommBytes, t.Frames, t.Payload, t.Wire)
}

// checkTraffic checks that every traced step moved exactly the same
// traffic on each rank, and that it equals the analytic value.
func checkTraffic(s Strategy, assign *reduce.Assignment, header int, perStep [][world]Traffic) error {
	if len(perStep) == 0 {
		return fmt.Errorf("no traced steps")
	}
	for r := 0; r < world; r++ {
		want := expectedTraffic(s, assign, r, header)
		for i, st := range perStep {
			if got := st[r].counts(); got != want {
				return fmt.Errorf("rank %d, traced step %d: measured %v; analytic %v", r, i, got, want)
			}
		}
	}
	return nil
}

// add accumulates o into t.
func (t *Traffic) add(o Traffic) {
	for i := range t.Calls {
		t.Calls[i] += o.Calls[i]
	}
	t.CommBytes += o.CommBytes
	t.Exposed += o.Exposed
	t.Frames += o.Frames
	t.Payload += o.Payload
	t.Wire += o.Wire
	t.Send += o.Send
	t.Recv += o.Recv
	t.Busy += o.Busy
}
