// Package controlplane is the durable control plane of the distributed
// runtime: a journal of every control-plane mutation — deploy,
// placement change, recovery, scale-out/in stage boundaries — so a
// restarted (or cold-standby) coordinator can rebuild its plan,
// placement and backup store from disk and resume a running job.
//
// The journal is one snapshot file, not a log. Journal keeps the fold
// of every record appended so far (Replayed: the last State, the
// in-doubt transitions, the last sequence number and the record count),
// and each Append folds its record and replaces the file with the new
// fold, one CRC-framed frame
//
//	[version:1][len:4 LE][crc32:4 LE][gob body]
//
// through core.ReplaceFile: written beside the old file, synced, renamed
// over it, and the directory synced. A crash leaves the old snapshot or
// the new one, never a mix, so there is no tail to scan or truncate. A
// snapshot that fails its length or CRC check is an error, never an
// older state, and so is a file whose version byte is not this binary's
// — an older write-ahead log at the same path included. State payloads
// (operator checkpoints) do NOT live here — they go through
// core.DurableStore; the journal holds only the control metadata that
// makes those files interpretable after a restart: placement, the query
// manager's own books (core.Books) and trims (core.Trim), in the types
// their owners use.
//
// Record discipline mirrors the coordinator's staged transitions:
//
//	RecIntent   — a transition is about to mutate the cluster (victims
//	              may be final-retired after this point).
//	RecPlanned  — the plan committed to the graph; carries a full State
//	              snapshot (placement and the query manager's books:
//	              graph, partition counters, routing, legacy chain) and
//	              the plan's per-victim trim watermarks (core.Trim) that
//	              keep the replay of a merge exactly-once.
//	RecCommit   — the transition completed; closes the intent.
//	RecAbort    — the transition failed; the live coordinator rolled it
//	              back through the abort-to-recovery path.
//
// On replay, any intent without a commit or abort is in doubt: the
// reborn coordinator rolls it back through the same abort-to-recovery
// path, so a crash between retire and deploy never strands a key range.
package controlplane

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"seep/internal/core"
	"seep/internal/plan"
)

// Kind discriminates journal records.
type Kind uint8

const (
	// RecDeploy snapshots the freshly planned deployment (before any
	// worker sees it).
	RecDeploy Kind = 1 + iota
	// RecStart marks the job started and anchors the job clock.
	RecStart
	// RecIntent opens a transition: victims may be retired after this.
	RecIntent
	// RecPlanned commits a transition's plan: full post-plan State plus
	// its trim watermarks. The plan's checkpoint files are persisted
	// BEFORE this record is appended.
	RecPlanned
	// RecCommit closes a transition successfully.
	RecCommit
	// RecAbort closes a transition that failed and was rolled back.
	RecAbort
	// RecShip is checkpoint-ship metadata (instance, seq, bytes). No
	// coordinator writes it: the durable store holds what a reborn
	// coordinator reads of a ship, and the fold only counts the record.
	RecShip
)

func (k Kind) String() string {
	switch k {
	case RecDeploy:
		return "deploy"
	case RecStart:
		return "start"
	case RecIntent:
		return "intent"
	case RecPlanned:
		return "planned"
	case RecCommit:
		return "commit"
	case RecAbort:
		return "abort"
	case RecShip:
		return "ship"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Placement locates one instance on one worker, by the worker's listener
// address: what an assignment or a reroute tells the workers, and what
// the journal keeps.
type Placement struct {
	Inst plan.InstanceID
	Addr string
}

// State is one self-contained control-plane snapshot: everything a
// reborn coordinator needs (beyond the durable checkpoint files) to
// resume a job. Slices, not maps, for deterministic gob encoding.
type State struct {
	Topology   string
	Workers    []string    // worker addresses in placement order
	Placements []Placement // sorted by instance
	// Books are the query manager's own: execution graph, routing and
	// legacy chain, restored with core.Manager.RestoreBooks.
	Books           core.Books
	NextSeq         uint64
	Started         bool
	StartUnixMillis int64 // wall-clock job start: the job clock survives restarts
}

// ShipMark is checkpoint-ship metadata (the payload lives in the
// durable store, keyed by instance).
type ShipMark struct {
	Inst  plan.InstanceID
	Seq   uint64
	Bytes int
}

// Record is the one journal record type; unused fields stay zero.
type Record struct {
	Kind Kind
	// Seq is the transition sequence number (intent/planned/commit/abort)
	// or the deploying coordinator's current sequence.
	Seq uint64
	// State rides RecDeploy and RecPlanned.
	State *State
	// StartUnixMillis rides RecStart.
	StartUnixMillis int64
	// Action ("scale-out", "scale-in", "recover") and Victims/Pi ride
	// RecIntent.
	Action  string
	Victims []plan.InstanceID
	Pi      int
	// Trims ride RecPlanned: the plan's per-victim trim watermarks. On
	// rollback of an in-doubt merge the recovery reroute carries them, so
	// upstream buffers still trim to each victim's own final watermark
	// before repartitioning (the merged duplicate-detection watermark is
	// the victims' minimum; without the trims, replay would double-deliver
	// the span between the minimum and each victim's own position).
	Trims []core.Trim
	// Ship rides RecShip.
	Ship *ShipMark
	// Reason rides RecAbort.
	Reason string
}

// Stats counts control-plane work: journal traffic and write latency
// from the journal, replay/reattach/failover timings filled in by the
// recovering coordinator.
type Stats struct {
	// JournalAppends counts records appended; JournalBytes counts the
	// snapshot bytes written for them (each append rewrites the whole
	// snapshot).
	JournalAppends uint64
	JournalBytes   uint64
	// FsyncTotalMicros and FsyncMaxMicros time each append's synced
	// replace: write, file sync, rename and directory sync.
	FsyncTotalMicros uint64
	FsyncMaxMicros   uint64
	// ReplayRecords and ReplayMillis describe the last journal replay:
	// the records folded into the snapshot, and the replay's duration.
	ReplayRecords int
	ReplayMillis  int64
	// Reattached counts workers reconciled by the last reattach
	// handshake; FailoverMillis is its wall-clock (replay through
	// reconciliation).
	Reattached     int
	FailoverMillis int64
}

const (
	// journalVersion is the snapshot's first byte. A journal another
	// version wrote — version 2 was an append-only log of records — is
	// refused, never misread.
	journalVersion = 3
	headerLen      = 9
	// maxSnapshotBytes mirrors the transport's frame cap: a length field
	// past it means a corrupt header, not a huge snapshot.
	maxSnapshotBytes = 16 << 20
	// journalFile keeps the log's old name, so that a journal an older
	// version wrote is found and refused rather than silently ignored.
	journalFile = "journal.wal"
)

func journalPath(dir string) string { return filepath.Join(dir, journalFile) }

// encodeSnapshot frames one fold.
func encodeSnapshot(r *Replayed) ([]byte, error) {
	var body bytes.Buffer
	if err := gob.NewEncoder(&body).Encode(r); err != nil {
		return nil, fmt.Errorf("controlplane: encode snapshot: %w", err)
	}
	if body.Len() > maxSnapshotBytes {
		return nil, fmt.Errorf("controlplane: snapshot of %d bytes exceeds %d", body.Len(), maxSnapshotBytes)
	}
	return frame(body.Bytes()), nil
}

// frame puts the snapshot header in front of body.
func frame(body []byte) []byte {
	out := make([]byte, headerLen, headerLen+len(body))
	out[0] = journalVersion
	binary.LittleEndian.PutUint32(out[1:5], uint32(len(body)))
	binary.LittleEndian.PutUint32(out[5:9], crc32.ChecksumIEEE(body))
	return append(out, body...)
}

// decodeSnapshot decodes one snapshot file: exactly one frame of this
// version whose CRC matches. Never panics, whatever the input.
func decodeSnapshot(data []byte) (r *Replayed, err error) {
	if len(data) > 0 && data[0] != journalVersion {
		return nil, fmt.Errorf("controlplane: journal version %d, want %d", data[0], journalVersion)
	}
	if len(data) < headerLen {
		return nil, fmt.Errorf("controlplane: snapshot of %d bytes is shorter than its header", len(data))
	}
	n := binary.LittleEndian.Uint32(data[1:5])
	if n > maxSnapshotBytes || int(n) != len(data)-headerLen {
		return nil, fmt.Errorf("controlplane: snapshot body of %d bytes, header says %d", len(data)-headerLen, n)
	}
	body := data[headerLen:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(data[5:9]) {
		return nil, errors.New("controlplane: snapshot CRC mismatch")
	}
	// The gob decoder can panic on malformed input that a colliding CRC
	// lets through; the fuzz target feeds arbitrary bytes here.
	defer func() {
		if p := recover(); p != nil {
			r, err = nil, fmt.Errorf("controlplane: decode snapshot: %v", p)
		}
	}()
	r = new(Replayed)
	if err := gob.NewDecoder(bytes.NewReader(body)).Decode(r); err != nil {
		return nil, fmt.Errorf("controlplane: decode snapshot: %w", err)
	}
	return r, nil
}

// readSnapshot reads and decodes the snapshot in dir.
func readSnapshot(dir string) (*Replayed, error) {
	data, err := os.ReadFile(journalPath(dir))
	if err != nil {
		return nil, fmt.Errorf("controlplane: read journal: %w", err)
	}
	return decodeSnapshot(data)
}

// Journal is the control-plane journal: the fold of every record
// appended, kept in memory and on disk. Every Append is synced before it
// returns: a record the coordinator acted on is on disk.
type Journal struct {
	mu     sync.Mutex
	path   string
	r      Replayed
	closed bool

	appends    uint64
	bytes      uint64
	fsyncTotal uint64
	fsyncMax   uint64
}

// Open creates (or reuses) the directory and loads the snapshot in it,
// if any: appends fold onto it. A snapshot that does not decode is an
// error.
func Open(dir string) (*Journal, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("controlplane: create journal dir: %w", err)
	}
	j := &Journal{path: journalPath(dir)}
	r, err := readSnapshot(dir)
	switch {
	case errors.Is(err, os.ErrNotExist):
	case err != nil:
		return nil, err
	default:
		j.r = *r
	}
	return j, nil
}

// Append folds one record into the journal and replaces the snapshot
// file with the fold. When the write fails the record stays folded in
// memory, and the next Append that succeeds writes it too.
func (j *Journal) Append(rec *Record) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return errors.New("controlplane: journal closed")
	}
	j.r.fold(rec)
	snap, err := encodeSnapshot(&j.r)
	if err != nil {
		return err
	}
	start := time.Now()
	if err := core.ReplaceFile(j.path, snap); err != nil {
		return fmt.Errorf("controlplane: write snapshot after %s record: %w", rec.Kind, err)
	}
	us := uint64(time.Since(start).Microseconds())
	j.appends++
	j.bytes += uint64(len(snap))
	j.fsyncTotal += us
	j.fsyncMax = max(j.fsyncMax, us)
	return nil
}

// Replayed returns the fold of every record appended, those of the
// snapshot Open loaded included: what a reborn coordinator resumes
// from. A journal without a deployment snapshot is an error — there is
// nothing to resume.
func (j *Journal) Replayed() (*Replayed, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.r.check(); err != nil {
		return nil, err
	}
	r := j.r
	r.InDoubt = slices.Clone(r.InDoubt)
	return &r, nil
}

// Close closes the journal. Append after Close errors.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.closed = true
	return nil
}

// Stats snapshots the journal-side counters.
func (j *Journal) Stats() Stats {
	j.mu.Lock()
	defer j.mu.Unlock()
	return Stats{
		JournalAppends:   j.appends,
		JournalBytes:     j.bytes,
		FsyncTotalMicros: j.fsyncTotal,
		FsyncMaxMicros:   j.fsyncMax,
	}
}
