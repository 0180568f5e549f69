package state

import (
	"fmt"

	"seep/internal/plan"
	"seep/internal/stream"
)

// Delta is an incremental checkpoint: the keys whose values changed since
// the previous checkpoint plus the keys that were deleted (§3.2 mentions
// incremental checkpointing as a size reduction; this implements it).
type Delta struct {
	// Base is the sequence number of the checkpoint this delta applies to.
	Base uint64
	// Seq is the sequence number of the state after applying the delta.
	Seq uint64
	// Changed holds new or updated key/value pairs.
	Changed Run
	// Deleted lists removed keys, ascending as TakeDelta emits them.
	Deleted []stream.Key
	// TS is the timestamp vector after applying the delta.
	TS stream.TSVector
}

// Size returns the bytes the delta ships without its bookkeeping: the
// DeltaCheckpoint.Size of a delta checkpoint that carries no buffer.
func (d *Delta) Size() int {
	if d == nil {
		return 0
	}
	return (&DeltaCheckpoint{Delta: d}).Size()
}

// Apply folds a delta into a full processing state (the backup side of
// incremental checkpointing). The delta must be consecutive: its Base
// equals the state's current sequence as tracked by the caller. The
// fold is a fresh run: whoever else holds p's old one keeps it intact.
// Deleted must ascend, as TakeDelta and DeltaOf give it. A delta whose
// run names other cells than p's is an error, and p is left as it was.
func (d *Delta) Apply(p *Processing) error {
	kv, err := overlay(p.KV, d.Changed, d.Deleted)
	if err != nil {
		return err
	}
	p.KV, p.TS = kv, d.TS.Clone()
	return nil
}

// DeltaCheckpoint is what a runtime ships in place of a full Checkpoint
// when incremental checkpointing is active: the processing-state delta
// plus the (small, fully refreshed) bookkeeping a restore needs — buffer
// state, output clock and acknowledgement map. The backup host folds it
// into the stored base checkpoint (BackupStore.ApplyDelta).
type DeltaCheckpoint struct {
	// Instance identifies the checkpointed operator instance.
	Instance plan.InstanceID
	// Delta is the processing-state change since the stored checkpoint;
	// Delta.Base must match the stored checkpoint's Seq.
	Delta *Delta
	// Buffer is βo at checkpoint time (shipped whole: it is bounded by
	// acknowledgement-driven trimming, unlike the processing state).
	Buffer *Buffer
	// OutClock is the output logical clock at checkpoint time.
	OutClock int64
	// Acks is the per-upstream-instance acknowledgement map.
	Acks map[plan.InstanceID]int64
}

// Size returns the bytes shipped for this delta checkpoint, comparable
// with Checkpoint.Size: the Size of the checkpoint it travels as, plus 8
// bytes per deleted key travelling beside it.
func (dc *DeltaCheckpoint) Size() int {
	if dc == nil {
		return 0
	}
	return dc.Checkpoint().Size() + 8*len(dc.Delta.Deleted)
}

// Checkpoint views the delta as the checkpoint it travels as: the
// changed keys are its processing state, and Seq, the timestamp vector
// and the bookkeeping are the delta's own. Base and Deleted are not in
// the view; they travel beside it, and DeltaOf puts them back.
func (dc *DeltaCheckpoint) Checkpoint() *Checkpoint {
	return &Checkpoint{
		Instance:   dc.Instance,
		Seq:        dc.Delta.Seq,
		Processing: &Processing{KV: dc.Delta.Changed, TS: dc.Delta.TS},
		Buffer:     dc.Buffer,
		OutClock:   dc.OutClock,
		Acks:       dc.Acks,
	}
}

// DeltaOf is the inverse of Checkpoint: cp read as the delta from the
// checkpoint numbered base that also removes the deleted keys. It
// checks what came off the wire: 0 < base < cp.Seq, deleted strictly
// ascending, and no legacy buffers, which a delta never ships.
func DeltaOf(cp *Checkpoint, base uint64, deleted []stream.Key) (*DeltaCheckpoint, error) {
	if err := cp.Validate(); err != nil {
		return nil, err
	}
	if base == 0 || base >= cp.Seq {
		return nil, fmt.Errorf("state: delta base %d for %s at seq %d", base, cp.Instance, cp.Seq)
	}
	for i := 1; i < len(deleted); i++ {
		if deleted[i] <= deleted[i-1] {
			return nil, fmt.Errorf("state: deleted key %d after %d: keys must strictly ascend", deleted[i], deleted[i-1])
		}
	}
	if len(cp.Legacy) > 0 {
		return nil, fmt.Errorf("state: delta for %s carries legacy buffers", cp.Instance)
	}
	return &DeltaCheckpoint{
		Instance: cp.Instance,
		Delta:    &Delta{Base: base, Seq: cp.Seq, Changed: cp.Processing.KV, Deleted: deleted, TS: cp.Processing.TS},
		Buffer:   cp.Buffer,
		OutClock: cp.OutClock,
		Acks:     cp.Acks,
	}, nil
}

// DeltaPolicy governs when a runtime ships incremental checkpoints for
// managed-state operators instead of full ones (§3.2's incremental
// checkpointing, surfaced as seep.WithIncrementalCheckpoints).
type DeltaPolicy struct {
	// FullEvery forces a full checkpoint every FullEvery-th checkpoint
	// (so up to FullEvery-1 consecutive deltas chain off one base).
	// Values below 2 disable incremental checkpointing.
	FullEvery int
	// MaxDeltaFraction falls back to a full checkpoint when the delta's
	// serialised size exceeds this fraction of the last full snapshot's
	// size (a delta nearly as large as the base saves nothing and costs
	// a fold). Zero means the default of 0.5.
	MaxDeltaFraction float64
}

// Enabled reports whether incremental checkpointing is on.
func (p DeltaPolicy) Enabled() bool { return p.FullEvery >= 2 }

// DeltaAllowed reports whether a delta of the given size may be shipped
// against a base of the given size.
func (p DeltaPolicy) DeltaAllowed(deltaSize, baseSize int) bool {
	frac := p.MaxDeltaFraction
	if frac == 0 {
		frac = 0.5
	}
	return float64(deltaSize) <= frac*float64(baseSize)
}
