// Package core implements the paper's primary contribution: explicit
// operator state management. It provides the backup store (the state kept
// "at upstream VMs"), backup-operator placement (Algorithm 1), and the
// query manager that owns the execution graph and routing state and plans
// the integrated fault-tolerant scale-out of Algorithm 3. The runtime
// layers (the live engine and the cluster simulator) execute these plans.
package core

import (
	"errors"
	"fmt"
	"sync"

	"seep/internal/plan"
	"seep/internal/state"
	"seep/internal/stream"
)

// ErrNoBase reports that an incremental checkpoint cannot be applied —
// no stored base, a base at a different host, or a sequence gap. The
// caller must ship a full checkpoint instead.
var ErrNoBase = errors.New("core: no matching base checkpoint for delta")

// ChooseBackup selects the upstream instance that stores o's checkpoints:
// i = hash(id(o)) mod |up(o)| (Algorithm 1, line 2). Spreading backups by
// hash balances the backup load across upstream operators (§3.2). The
// upstream list must be non-empty and is sorted internally so the choice
// is stable regardless of caller ordering.
func ChooseBackup(o plan.InstanceID, upstreams []plan.InstanceID) (plan.InstanceID, error) {
	if len(upstreams) == 0 {
		return plan.InstanceID{}, fmt.Errorf("core: no upstream operator to back up %s", o)
	}
	ups := append([]plan.InstanceID(nil), upstreams...)
	state.SortInstanceIDs(ups)
	h := stream.KeyOfString(o.String())
	return ups[uint64(h)%uint64(len(ups))], nil
}

// entry is one stored backup. A checkpoint shipped over the wire stays
// the bytes it arrived as until a transition or a delta fold first needs
// its state (checkpoint); exactly one of cp and blob is set. An entry is
// always a full checkpoint: a delta is stored as its fold.
type entry struct {
	host plan.InstanceID
	seq  uint64
	// size is the footprint recorded when the entry was stored: the
	// blob's length, or cp.Size() for a checkpoint stored decoded. The
	// two agree on the processing section, which cp.Size() counts as the
	// bytes it encodes to; they differ by the header and by the buffer
	// sections, which cp.Size() estimates at 16 bytes per tuple.
	size  int
	cp    *state.Checkpoint
	blob  []byte
	codec state.PayloadCodec
}

// BackupStore holds the checkpointed state of operators, attributed to
// the upstream instance ("host") that physically stores it. Losing a
// host (VM failure) loses the backups it held — exactly the failure mode
// discussed in §4.3 — so the store supports dropping all state held by a
// host. BackupStore is safe for concurrent use.
type BackupStore struct {
	mu      sync.Mutex
	byOwner map[plan.InstanceID]entry
	// bytes tracks the total stored footprint for observability.
	bytes int
	// ship tallies what was shipped to the store, so the size win of
	// incremental checkpoints is observable on every substrate.
	ship ShipStats
}

// ShipStats tallies checkpoint traffic into a backup store: how many
// full checkpoints and deltas were accepted, and their bytes (encoded
// length for checkpoints stored encoded, Checkpoint.Size otherwise —
// the same count for the processing state, with the buffers estimated).
// DeltaBytes versus the full-checkpoint bytes they replaced is the
// measurable win of incremental checkpointing (§3.2).
type ShipStats struct {
	Fulls      uint64
	Deltas     uint64
	FullBytes  uint64
	DeltaBytes uint64
	// Corrupt counts stored checkpoints dropped because their body did
	// not decode when first needed.
	Corrupt uint64
}

// NewBackupStore returns an empty store.
func NewBackupStore() *BackupStore {
	return &BackupStore{byOwner: make(map[plan.InstanceID]entry)}
}

// Store saves a checkpoint for cp.Instance at the given host. A full
// checkpoint replaces any older one (Algorithm 1 lines 3-7: if the
// backup operator changed, the old backup is released); a stale one
// (lower Seq for the same owner at the same host) is rejected. A delta
// (cp.Base ≠ 0) is folded into the stored checkpoint, which must live at
// host and be numbered cp.Base; otherwise ErrNoBase is returned and the
// owner must ship a full checkpoint. The fold replaces the stored
// checkpoint, which is never mutated: planners may hold it.
func (s *BackupStore) Store(host plan.InstanceID, cp *state.Checkpoint) error {
	return s.store(host, cp, nil)
}

// store is Store with a hook that sees the full checkpoint about to be
// stored — cp itself, or the fold of a delta — and can refuse it, before
// anything in memory changes; DurableStore persists there.
func (s *BackupStore) store(host plan.InstanceID, cp *state.Checkpoint, persist func(*state.Checkpoint) error) error {
	if err := cp.Validate(); err != nil {
		return err
	}
	if cp.Base == 0 {
		if persist != nil {
			if err := persist(cp); err != nil {
				return err
			}
		}
		return s.put(cp.Instance, entry{host: host, seq: cp.Seq, size: cp.Size(), cp: cp})
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.byOwner[cp.Instance]
	switch {
	case !ok:
		return fmt.Errorf("%w: no checkpoint stored for %s", ErrNoBase, cp.Instance)
	case e.host != host:
		return fmt.Errorf("%w: base for %s lives at %s, not %s", ErrNoBase, cp.Instance, e.host, host)
	case e.seq != cp.Base:
		return fmt.Errorf("%w: stored seq %d, delta base %d for %s", ErrNoBase, e.seq, cp.Base, cp.Instance)
	}
	if e, ok = s.checkpoint(cp.Instance); !ok {
		return fmt.Errorf("%w: stored base for %s does not decode", ErrNoBase, cp.Instance)
	}
	folded, err := cp.Fold(e.cp)
	if err != nil {
		return err
	}
	if persist != nil {
		if err := persist(folded); err != nil {
			return err
		}
	}
	size := folded.Size()
	s.bytes += size - e.size
	s.byOwner[cp.Instance] = entry{host: host, seq: folded.Seq, size: size, cp: folded}
	s.ship.Deltas++
	s.ship.DeltaBytes += uint64(cp.Size())
	return nil
}

// StoreEncoded is Store for a checkpoint still in wire form: h is blob's
// header (state.DecodeCheckpointHeader) and the store keeps blob itself,
// so a backup host pays for bytes, not for decoding state it may never
// restore. codec decodes the body if a transition or delta ever asks.
func (s *BackupStore) StoreEncoded(host plan.InstanceID, h state.CheckpointHeader, blob []byte, codec state.PayloadCodec) error {
	return s.put(h.Instance, entry{host: host, seq: h.Seq, size: len(blob), blob: blob, codec: codec})
}

func (s *BackupStore) put(owner plan.InstanceID, e entry) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if old, ok := s.byOwner[owner]; ok {
		if old.host == e.host && old.seq > e.seq {
			return fmt.Errorf("core: stale checkpoint seq %d < %d for %s", e.seq, old.seq, owner)
		}
		s.bytes -= old.size
	}
	s.byOwner[owner] = e
	s.bytes += e.size
	s.ship.Fulls++
	s.ship.FullBytes += uint64(e.size)
	return nil
}

// checkpoint returns owner's entry with its checkpoint decoded, decoding
// a stored blob on first use and keeping the result in its place. A body
// that does not decode is dropped and counted, leaving the owner without
// a backup — for a planner that is ErrNoCheckpoint, as if the ship had
// never arrived. Caller holds s.mu.
func (s *BackupStore) checkpoint(owner plan.InstanceID) (entry, bool) {
	e, ok := s.byOwner[owner]
	if !ok || e.cp != nil {
		return e, ok
	}
	cp, err := state.DecodeCheckpoint(stream.NewDecoder(e.blob), e.codec)
	if err != nil {
		s.remove(owner, e)
		s.ship.Corrupt++
		return entry{}, false
	}
	e.cp, e.blob, e.codec = cp, nil, nil
	s.byOwner[owner] = e
	return e, true
}

func (s *BackupStore) remove(owner plan.InstanceID, e entry) {
	s.bytes -= e.size
	delete(s.byOwner, owner)
}

// ApplyDelta is Store for a delta in the form bench/probes.go builds;
// it remains only for that caller.
func (s *BackupStore) ApplyDelta(host plan.InstanceID, dc *state.DeltaCheckpoint) error {
	return s.Store(host, dc.Checkpoint())
}

// ShipStats returns the checkpoint traffic tallies.
func (s *BackupStore) ShipStats() ShipStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ship
}

// Latest returns the most recent checkpoint for owner and the host
// storing it. A checkpoint stored encoded is decoded here, once.
func (s *BackupStore) Latest(owner plan.InstanceID) (*state.Checkpoint, plan.InstanceID, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.checkpoint(owner)
	return e.cp, e.host, ok
}

// Delete removes the backup of owner (delete-backup in Algorithm 1).
func (s *BackupStore) Delete(owner plan.InstanceID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.byOwner[owner]; ok {
		s.remove(owner, e)
	}
}

// DropHost removes every backup physically stored at host, modelling the
// loss of the VM hosting it. It returns the owners whose backups were
// lost; those operators must re-checkpoint before they can be recovered
// or scaled out (§4.3 discussion).
func (s *BackupStore) DropHost(host plan.InstanceID) []plan.InstanceID {
	s.mu.Lock()
	defer s.mu.Unlock()
	var lost []plan.InstanceID
	for owner, e := range s.byOwner {
		if e.host == host {
			s.remove(owner, e)
			lost = append(lost, owner)
		}
	}
	state.SortInstanceIDs(lost)
	return lost
}

// HostedBy returns the owners whose backups are stored at host.
func (s *BackupStore) HostedBy(host plan.InstanceID) []plan.InstanceID {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []plan.InstanceID
	for owner, e := range s.byOwner {
		if e.host == host {
			out = append(out, owner)
		}
	}
	state.SortInstanceIDs(out)
	return out
}

// Bytes returns the total stored checkpoint footprint.
func (s *BackupStore) Bytes() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytes
}

// Len returns the number of stored backups.
func (s *BackupStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.byOwner)
}
