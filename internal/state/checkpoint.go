package state

import (
	"fmt"
	"slices"

	"seep/internal/plan"
	"seep/internal/stream"
)

// Checkpoint is the unit produced by checkpoint-state(o) and shipped by
// backup-state(o): a consistent copy of the operator's processing state
// and buffer state, tagged with the instance it belongs to, the timestamp
// vector of input tuples reflected in the processing state, and the
// operator's output logical clock at checkpoint time (§3.2).
type Checkpoint struct {
	// Instance identifies the checkpointed operator instance.
	Instance plan.InstanceID
	// Seq is a per-instance checkpoint sequence number; newer checkpoints
	// of the same instance supersede older ones.
	Seq uint64
	// Base, when non-zero, makes the checkpoint a delta from the
	// checkpoint numbered Base (§3.2's incremental checkpointing): its
	// processing state holds only the keys changed since then, Deleted
	// lists the keys removed since, ascending, and the backup host folds
	// it into the base it stores (Fold). A delta never carries Legacy
	// buffers: the base's stay authoritative. Neither field is in the
	// encoded checkpoint; a ship carries them beside it.
	Base    uint64
	Deleted []stream.Key
	// Processing is θo at checkpoint time (a deep copy).
	Processing *Processing
	// Buffer is βo at checkpoint time: the operator's own output buffers,
	// needed so that a restored operator can replay to ITS downstreams.
	Buffer *Buffer
	// OutClock is the operator's output logical clock at checkpoint time;
	// a restored operator resets its clock here so downstream duplicate
	// detection works (§3.2, restore-state).
	OutClock int64
	// Acks records, per upstream instance, the timestamp of the newest
	// tuple from that instance reflected in Processing. This is the
	// instance-granular form of τo used when upstream operators are
	// partitioned: each upstream instance stamps tuples with its own
	// logical clock, so duplicate detection and buffer trimming operate
	// per upstream instance.
	Acks map[plan.InstanceID]int64
	// Legacy holds output buffers inherited from merge victims (§3.3
	// scale in), keyed by the ORIGINAL emitting instance. A merged
	// operator cannot absorb its victims' retained output into its own
	// buffer: the victims stamped tuples from independent logical
	// clocks, so their sequences only stay replayable — monotone per
	// sender, matched against the downstream duplicate-detection
	// watermarks that already exist for those senders — if each buffer
	// keeps its original identity. Legacy buffers are replayed and
	// trimmed under the owner's name and disappear once downstream
	// checkpoints acknowledge them.
	Legacy map[plan.InstanceID]*Buffer
}

// SortInstanceIDs orders instance identifiers by plan.InstanceID.Compare
// — the order the wire codec, legacy-buffer replay and the runtimes'
// deterministic iteration share.
func SortInstanceIDs(ids []plan.InstanceID) { slices.SortFunc(ids, plan.InstanceID.Compare) }

// LegacyOwners returns the owners of a legacy buffer map in
// deterministic (Op, Part) order. Replay order is load-bearing: the
// simulator's seeded determinism and the engines' per-sender replay
// runs both forbid map-order iteration.
func LegacyOwners(legacy map[plan.InstanceID]*Buffer) []plan.InstanceID {
	if len(legacy) == 0 {
		return nil
	}
	out := make([]plan.InstanceID, 0, len(legacy))
	for owner := range legacy {
		out = append(out, owner)
	}
	SortInstanceIDs(out)
	return out
}

// CloneLegacy deep-copies legacy buffer maps into one, dropping entries
// with no live tuples (nil when nothing remains).
func CloneLegacy(legacies ...map[plan.InstanceID]*Buffer) map[plan.InstanceID]*Buffer {
	var out map[plan.InstanceID]*Buffer
	for _, legacy := range legacies {
		for owner, b := range legacy {
			if b == nil || b.Len() == 0 {
				continue
			}
			if out == nil {
				out = make(map[plan.InstanceID]*Buffer, len(legacy))
			}
			out[owner] = b.Clone()
		}
	}
	return out
}

// retained is a superseded checkpoint's retained output as legacy
// buffers: its own buffer under its own identity, and the legacy buffers
// it carries.
func (c *Checkpoint) retained() []map[plan.InstanceID]*Buffer {
	return []map[plan.InstanceID]*Buffer{{c.Instance: c.Buffer}, c.Legacy}
}

// CloneAcks returns a copy of the acknowledgement map (nil-safe).
func CloneAcks(acks map[plan.InstanceID]int64) map[plan.InstanceID]int64 {
	if acks == nil {
		return nil
	}
	out := make(map[plan.InstanceID]int64, len(acks))
	for k, v := range acks {
		out[k] = v
	}
	return out
}

// TS returns the input timestamp vector reflected in the checkpoint.
func (c *Checkpoint) TS() stream.TSVector {
	if c == nil || c.Processing == nil {
		return nil
	}
	return c.Processing.TS
}

// Size returns the checkpoint's footprint in bytes: what its processing
// state encodes to (Processing.Size) plus an estimate of 16 bytes per
// buffered tuple, own and legacy, not the buffer sections' encoded
// length, plus 8 bytes per deleted key a delta carries beside it.
func (c *Checkpoint) Size() int {
	if c == nil {
		return 0
	}
	return c.Processing.Size() + c.bufferSize() + 8*len(c.Deleted)
}

// bufferSize is the buffers' part of Size: 16 bytes of header per
// buffered tuple, own and legacy. Payload sizes are operator-specific
// and approximated by the header-only figure when payloads are
// in-memory values.
func (c *Checkpoint) bufferSize() int {
	n := 0
	if c.Buffer != nil {
		n += 16 * c.Buffer.Len()
	}
	for _, b := range c.Legacy {
		n += 16 * b.Len()
	}
	return n
}

// Validate checks internal consistency.
func (c *Checkpoint) Validate() error {
	if c == nil {
		return fmt.Errorf("state: nil checkpoint")
	}
	if c.Instance.Op == "" {
		return fmt.Errorf("state: checkpoint with empty instance")
	}
	if c.Processing == nil {
		return fmt.Errorf("state: checkpoint %s without processing state", c.Instance)
	}
	if c.Base == 0 && len(c.Deleted) == 0 {
		return nil
	}
	// A delta: what came off the wire must be one a sender ships.
	if c.Base == 0 || c.Base >= c.Seq {
		return fmt.Errorf("state: delta base %d for %s at seq %d", c.Base, c.Instance, c.Seq)
	}
	for i := 1; i < len(c.Deleted); i++ {
		if c.Deleted[i] <= c.Deleted[i-1] {
			return fmt.Errorf("state: deleted key %d after %d: keys must strictly ascend", c.Deleted[i], c.Deleted[i-1])
		}
	}
	if len(c.Legacy) > 0 {
		return fmt.Errorf("state: delta for %s carries legacy buffers", c.Instance)
	}
	return nil
}

// Fold returns the full checkpoint the delta c makes of base, the
// checkpoint numbered c.Base: base's processing state with c's keys laid
// over it and c's deleted keys removed, and c's timestamp vector and
// bookkeeping. Base's legacy buffers carry over, since a delta never
// re-ships them. The fold is fresh: base and c stay intact, so whoever
// holds them keeps them as they were. A delta whose run names other
// cells than base's is an error.
func (c *Checkpoint) Fold(base *Checkpoint) (*Checkpoint, error) {
	kv, err := overlay(base.Processing.KV, c.Processing.KV, c.Deleted)
	if err != nil {
		return nil, fmt.Errorf("state: fold delta for %s: %w", c.Instance, err)
	}
	return &Checkpoint{
		Instance:   c.Instance,
		Seq:        c.Seq,
		Processing: &Processing{KV: kv, TS: c.Processing.TS.Clone()},
		Buffer:     c.Buffer.Clone(),
		OutClock:   c.OutClock,
		Acks:       CloneAcks(c.Acks),
		Legacy:     CloneLegacy(base.Legacy),
	}, nil
}

// PartitionCheckpoint implements partition-processing-state (Algorithm 2
// lines 3-8) on a backed-up checkpoint: the processing state is split by
// the given key ranges, timestamps are copied to every part, and the
// buffer state is assigned to the FIRST partition (line 7) — buffered
// output tuples precede the split and any instance may replay them; the
// first partition is chosen by convention.
//
// A lone part takes the buffer as its own: it inherits the checkpoint's
// identity downstream (core.Inherit). Several parts are fresh
// identities, so the first keeps the buffer as a Legacy buffer under the
// checkpoint's instance — the merge rule (MergeCheckpoints): a victim's
// retained output replays under the identity that stamped it, against
// the duplicate-detection watermark downstream holds for it. Legacy
// buffers the checkpoint carries pass through with the first part.
//
// newInstances[i] receives the state for ranges[i].
func PartitionCheckpoint(c *Checkpoint, newInstances []plan.InstanceID, ranges []KeyRange) ([]*Checkpoint, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if len(newInstances) != len(ranges) {
		return nil, fmt.Errorf("state: %d instances for %d ranges", len(newInstances), len(ranges))
	}
	parts := c.Processing.Partition(ranges)
	out := make([]*Checkpoint, len(ranges))
	for i := range ranges {
		out[i] = &Checkpoint{
			Instance:   newInstances[i],
			Seq:        1,
			Processing: parts[i],
			Buffer:     NewBuffer(),
			OutClock:   c.OutClock,
			Acks:       CloneAcks(c.Acks),
		}
	}
	legacy := c.retained()
	if len(out) == 1 && c.Buffer != nil {
		out[0].Buffer, legacy = c.Buffer.Clone(), legacy[1:]
	}
	out[0].Legacy = CloneLegacy(legacy...)
	return out, nil
}

// MergeCheckpoints unions the checkpoints of several partitions of the
// same logical operator into one checkpoint for a single target instance —
// the scale-in primitive (§3.3). The output clock is the maximum, so the
// merged operator never reuses a timestamp.
//
// The victims' retained output does NOT fold into the merged buffer:
// each victim stamped tuples from its own logical clock, so the merged
// checkpoint keeps them as Legacy buffers under the original sender
// identities — replayable against the per-sender duplicate-detection
// watermarks downstream already holds. A victim that itself carries
// legacy buffers (an earlier merge not yet fully acknowledged) passes
// them through unchanged.
//
// The acknowledgement map takes the per-upstream MINIMUM, not the
// maximum: each victim's upstream replay set is ground-truthed by the
// buffer trims its own checkpoint triggered (retained tuples all sit
// above the victim's own watermark), so the merged watermark must sit at
// or below EVERY victim's position — a maximum would silently discard
// replayed tuples bound for the lower-watermark victim. An upstream
// missing from any victim's map is omitted (watermark zero), which only
// admits tuples the trims left retained.
func MergeCheckpoints(target plan.InstanceID, cs ...*Checkpoint) (*Checkpoint, error) {
	if len(cs) == 0 {
		return nil, fmt.Errorf("state: merge of zero checkpoints")
	}
	procs := make([]*Processing, 0, len(cs))
	var legacy []map[plan.InstanceID]*Buffer
	out := &Checkpoint{Instance: target, Seq: 1, Buffer: NewBuffer()}
	seen := make(map[plan.InstanceID]int)
	for _, c := range cs {
		if err := c.Validate(); err != nil {
			return nil, err
		}
		if c.Instance.Op != target.Op {
			return nil, fmt.Errorf("state: merging %s into %s across operators", c.Instance, target)
		}
		procs = append(procs, c.Processing)
		legacy = append(legacy, c.retained()...)
		if c.OutClock > out.OutClock {
			out.OutClock = c.OutClock
		}
		for up, ts := range c.Acks {
			if out.Acks == nil {
				out.Acks = make(map[plan.InstanceID]int64)
			}
			seen[up]++
			if cur, ok := out.Acks[up]; !ok || ts < cur {
				out.Acks[up] = ts
			}
		}
	}
	// Drop upstreams not acknowledged by every victim: an absent entry
	// means watermark zero for that victim, and the merged map must not
	// claim a higher position than any victim held.
	for up, n := range seen {
		if n < len(cs) {
			delete(out.Acks, up)
		}
	}
	out.Legacy = CloneLegacy(legacy...)
	merged, err := MergeProcessing(procs...)
	if err != nil {
		return nil, err
	}
	out.Processing = merged
	return out, nil
}
