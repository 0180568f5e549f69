package state

import (
	"fmt"

	"seep/internal/plan"
	"seep/internal/stream"
)

// Instance is the externalised state of one running operator instance —
// the bundle checkpoint-state copies and restore-state installs (§3.2),
// and the bundle the node step (step.go: Admit, Emit, Inherit, Reroute)
// reads and advances per tuple. Both in-process substrates embed it in
// their node, so the primitives and the per-tuple rules exist once. An
// Instance does no locking of its own: the live engine guards it with
// its node lock, the simulator is single-threaded.
type Instance struct {
	// Store is the operator's managed processing state θo; nil on a
	// stateless instance.
	Store *Store
	// Acks is τo: Acks[u] is the timestamp of the newest tuple from
	// upstream instance u reflected in the processing state.
	Acks map[plan.InstanceID]int64
	// OutClock stamps emitted tuples.
	OutClock stream.Clock
	// Buffer is the buffer state βo.
	Buffer *Buffer
	// Legacy holds output buffers inherited from scale-in victims, keyed
	// by the ORIGINAL emitting instance (see Checkpoint.Legacy). Nil on
	// every instance that is not a merge product.
	Legacy map[plan.InstanceID]*Buffer
	// Seq numbers this instance's checkpoints.
	Seq uint64
	// NeedFull forces the next checkpoint to be full: set initially, by
	// Restore, and by the owner whenever a checkpoint failed to reach its
	// backup host.
	NeedFull bool
}

// NewInstance returns the bundle of a freshly deployed instance.
func NewInstance(store *Store) Instance {
	return Instance{
		Store:    store,
		Acks:     make(map[plan.InstanceID]int64),
		Buffer:   NewBuffer(),
		NeedFull: true,
	}
}

// Capture is a consistent copy of an instance's bookkeeping, taken by
// BeginCheckpoint; Checkpoint completes it with the processing state.
type Capture struct {
	inst      plan.InstanceID
	store     *Store
	forceFull bool
	base, seq uint64
	buffer    *Buffer
	outClock  int64
	acks      map[plan.InstanceID]int64
	legacy    map[plan.InstanceID]*Buffer
}

// BeginCheckpoint is the first half of checkpoint-state: it numbers the
// checkpoint and clones everything but the processing state. Call it
// with the bundle quiescent (under the owner's lock); the second half,
// Capture.Checkpoint, needs no lock.
func (in *Instance) BeginCheckpoint(id plan.InstanceID) *Capture {
	c := &Capture{inst: id, store: in.Store, forceFull: in.NeedFull, base: in.Seq}
	in.Seq++
	in.NeedFull = false
	c.seq = in.Seq
	c.buffer = in.Buffer.Clone()
	c.outClock = in.OutClock.Last()
	c.acks = CloneAcks(in.Acks)
	// Drop fully acknowledged legacy buffers: once downstream checkpoints
	// have trimmed an inherited buffer to empty it can never be needed
	// again.
	for owner, lb := range in.Legacy {
		if lb.Len() == 0 {
			delete(in.Legacy, owner)
		}
	}
	c.legacy = CloneLegacy(in.Legacy)
	return c
}

// Checkpoint is the second half of checkpoint-state: it extracts the
// processing state. The result is a delta — a Checkpoint whose Base is
// the checkpoint before it — when incremental is set, no full checkpoint
// is owed, fewer than fullEvery-1 deltas followed the last full one and
// the delta is small enough against it (maxDeltaFraction). Anything else,
// including a delta the store cannot produce, is a full checkpoint under
// the same sequence number, so a delta is never load-bearing. Without
// incremental the store stops tracking dirty keys, which only a delta
// reads. Nil when the state fails to encode (the previous backup then
// stays authoritative).
func (c *Capture) Checkpoint(incremental bool) *Checkpoint {
	cp := &Checkpoint{Instance: c.inst, Seq: c.seq, Processing: &Processing{}, Buffer: c.buffer, OutClock: c.outClock, Acks: c.acks}
	s := c.store
	if s != nil && incremental && !c.forceFull && c.base > 0 && s.DeltasSinceFull() < fullEvery-1 {
		kv, deleted, err := s.takeDelta()
		cp.Processing.KV = kv
		if err == nil && float64(kv.Size()+8*len(deleted)) <= maxDeltaFraction*float64(s.LastFullSize()) {
			cp.Base, cp.Deleted = c.base, deleted
			return cp
		}
		// The dirty set is consumed (or was never kept), but the full
		// snapshot below supersedes everything the delta held and
		// tracks again.
	}
	if s != nil {
		var err error
		if cp.Processing.KV, err = s.takeCheckpoint(incremental); err != nil {
			return nil
		}
	}
	cp.Legacy = c.legacy
	return cp
}

// Restore installs a checkpoint on the bundle (restore-state,
// Algorithm 1): processing state, buffer state, the output clock and the
// acknowledgement map duplicate detection uses during replay. The next
// checkpoint is a full one.
func (in *Instance) Restore(cp *Checkpoint) error {
	if in.Store != nil {
		if err := in.Store.Restore(cp.Processing.KV); err != nil {
			return fmt.Errorf("state: restore %s: %w", cp.Instance, err)
		}
	}
	in.Buffer = cp.Buffer.Clone()
	in.Legacy = CloneLegacy(cp.Legacy)
	in.OutClock.Reset(cp.OutClock)
	in.Acks = CloneAcks(cp.Acks)
	if in.Acks == nil {
		in.Acks = make(map[plan.InstanceID]int64)
	}
	in.Seq = cp.Seq
	in.NeedFull = true
	return nil
}
