package state

import (
	"sync"

	"seep/internal/plan"
	"seep/internal/stream"
)

// Batch is the one unit of tuples in flight between operator instances:
// what an emitter builds per downstream target, what a node's input
// queue, replay queue and a worker's pre-deployment stash hold, and what
// a wire frame carries. A batch shares one (From, To, Input) route —
// duplicate detection is per sender, so From is always the instance that
// stamped the tuples, also when they are replayed by someone else.
//
// A batch has one owner at a time. Handing it on (a channel send,
// Remote.Deliver, DeliverLocal returning true) hands the tuple slice on
// with it; the last owner calls Recycle.
type Batch struct {
	From, To plan.InstanceID
	// Input is the logical input-stream index at the receiver.
	Input int
	// Tuples are in emission order (monotone TS), as the receiver's
	// per-upstream duplicate detection expects.
	Tuples []stream.Tuple
}

// tuplePool recycles batch tuple slices between whoever finishes with a
// batch (a node after processing it, a link writer after encoding it)
// and the next emitter.
var tuplePool sync.Pool

// BatchTuples returns an empty tuple slice with capacity for n tuples,
// reusing a recycled one when the pool has a large enough fit.
func BatchTuples(n int) []stream.Tuple {
	if v := tuplePool.Get(); v != nil {
		if ts := *v.(*[]stream.Tuple); cap(ts) >= n {
			return ts[:0]
		}
	}
	return make([]stream.Tuple, 0, n)
}

// Recycle gives the tuple slice back for reuse; the owner must not touch
// b.Tuples afterwards. Elements are cleared first so pooled backing
// arrays do not pin already-processed payloads against the garbage
// collector.
func (b Batch) Recycle() {
	if cap(b.Tuples) == 0 {
		return
	}
	clear(b.Tuples)
	ts := b.Tuples[:0]
	tuplePool.Put(&ts)
}
