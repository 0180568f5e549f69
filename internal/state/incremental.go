package state

import (
	"seep/internal/plan"
	"seep/internal/stream"
)

// When Capture.Checkpoint may answer with a delta (a Checkpoint with a
// Base) instead of a full checkpoint. Folds happen when a delta is
// stored, so neither bounds recovery work. What they bound is staleness
// and waste:
//   - fullEvery: every fullEvery-th checkpoint is full. The Distributed
//     coordinator drops a delta whose base it does not hold without
//     telling the worker, which keeps chaining deltas off that base; so
//     a backup stays stale for at most fullEvery-1 checkpoint intervals.
//   - maxDeltaFraction: a delta whose processing state would exceed
//     this fraction of the last full one ships as a full checkpoint: it
//     saves too little to be worth a fold.
const (
	fullEvery        = 10
	maxDeltaFraction = 0.5
)

// Delta is a delta's processing state in the form it had before a delta
// became a Checkpoint with a Base. It remains only as the result of
// TakeDelta, for bench/probes.go and the incremental-checkpoint ablation.
type Delta struct {
	Base, Seq uint64
	Changed   Run
	Deleted   []stream.Key
	TS        stream.TSVector
}

// Size is the Size of the delta's checkpoint without bookkeeping.
func (d *Delta) Size() int { return (&DeltaCheckpoint{Delta: d}).Checkpoint().Size() }

// DeltaCheckpoint is a delta in the form BackupStore.ApplyDelta takes. It
// remains only because bench/probes.go builds one; Checkpoint makes it
// the Checkpoint every other caller uses.
type DeltaCheckpoint struct {
	Instance plan.InstanceID
	Delta    *Delta
	Buffer   *Buffer
	OutClock int64
	Acks     map[plan.InstanceID]int64
}

// Checkpoint is dc as a Checkpoint with a Base.
func (dc *DeltaCheckpoint) Checkpoint() *Checkpoint {
	d := dc.Delta
	return &Checkpoint{Instance: dc.Instance, Seq: d.Seq, Base: d.Base, Deleted: d.Deleted,
		Processing: &Processing{KV: d.Changed, TS: d.TS}, Buffer: dc.Buffer, OutClock: dc.OutClock, Acks: dc.Acks}
}
