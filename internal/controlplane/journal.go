// Package controlplane is the durable control plane of the distributed
// runtime: a write-ahead journal recording every control-plane mutation
// — deploy, placement change, recovery, scale-out/in stage boundaries,
// checkpoint-ship metadata — so a restarted (or cold-standby)
// coordinator can rebuild its plan, placement and backup store from
// disk and resume a running job.
//
// The journal is append-only and CRC-framed exactly like the v2 wire
// format (internal/transport): each record is
//
//	[version:1][kind:1][len:4 LE][crc32:4 LE][gob body]
//
// and a torn or corrupt frame marks the clean end of the journal (WAL
// discipline): everything before it replays, everything after it is
// discarded, and Open truncates the tail so new appends never follow
// garbage. A journal whose version byte is not this binary's is refused
// whole, by Open and Replay alike. State payloads (operator checkpoints)
// do NOT live here — they go through core.DurableStore; the journal
// holds only the control metadata that makes those files interpretable
// after a restart: placement, the query manager's own books (core.Books)
// and trims (core.Trim), in the types their owners use.
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
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
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
	// coordinator reads of a ship, and Fold skips the record. It keeps
	// its value, so RecSnapshot's does not move.
	RecShip
	// RecSnapshot is a rotation record: one self-contained State that
	// replaces the whole journal prefix.
	RecSnapshot
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
	case RecSnapshot:
		return "snapshot"
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
	// or the snapshotting coordinator's current sequence.
	Seq uint64
	// State rides RecDeploy, RecPlanned and RecSnapshot.
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

// Stats counts control-plane work: journal traffic and fsync latency
// from the journal, replay/reattach/failover timings filled in by the
// recovering coordinator.
type Stats struct {
	// JournalAppends and JournalBytes count records and framed bytes
	// appended (including rotation snapshots).
	JournalAppends uint64
	JournalBytes   uint64
	// Rotations counts atomic journal rotations.
	Rotations uint64
	// FsyncTotalMicros and FsyncMaxMicros time the per-append fsync.
	FsyncTotalMicros uint64
	FsyncMaxMicros   uint64
	// ReplayRecords and ReplayMillis describe the last journal replay.
	ReplayRecords int
	ReplayMillis  int64
	// Reattached counts workers reconciled by the last reattach
	// handshake; FailoverMillis is its wall-clock (replay through
	// reconciliation).
	Reattached     int
	FailoverMillis int64
}

const (
	// journalVersion is every record's first byte. A journal another
	// version wrote is refused (checkVersion), never misread or truncated.
	journalVersion = 2
	headerLen      = 10
	// maxRecordBytes mirrors the transport's frame cap: a length field
	// past it means a corrupt header, not a huge record.
	maxRecordBytes = 16 << 20
	journalFile    = "journal.wal"
)

func journalPath(dir string) string { return filepath.Join(dir, journalFile) }

// encodeRecord frames one record like a v2 wire frame.
func encodeRecord(rec *Record) ([]byte, error) {
	var body bytes.Buffer
	if err := gob.NewEncoder(&body).Encode(rec); err != nil {
		return nil, fmt.Errorf("controlplane: encode %s record: %w", rec.Kind, err)
	}
	b := body.Bytes()
	if len(b) > maxRecordBytes {
		return nil, fmt.Errorf("controlplane: %s record of %d bytes exceeds %d", rec.Kind, len(b), maxRecordBytes)
	}
	out := make([]byte, headerLen+len(b))
	out[0] = journalVersion
	out[1] = byte(rec.Kind)
	binary.LittleEndian.PutUint32(out[2:6], uint32(len(b)))
	binary.LittleEndian.PutUint32(out[6:10], crc32.ChecksumIEEE(b))
	copy(out[headerLen:], b)
	return out, nil
}

// decodeBody gob-decodes one record body, converting any decoder panic
// on malformed input into a failure (the fuzz target feeds arbitrary
// bytes through here).
func decodeBody(body []byte) (rec Record, ok bool) {
	defer func() {
		if recover() != nil {
			ok = false
		}
	}()
	if err := gob.NewDecoder(bytes.NewReader(body)).Decode(&rec); err != nil {
		return Record{}, false
	}
	return rec, true
}

// DecodeRecords decodes the longest valid prefix of a journal byte
// stream, returning the records and how many bytes they span. The first
// torn, truncated or corrupt frame ends the journal — everything after
// it is ignored (WAL discipline: an interrupted append must cost only
// the record being written). Never panics, whatever the input.
func DecodeRecords(data []byte) ([]Record, int) {
	var out []Record
	off := 0
	for {
		rest := len(data) - off
		if rest < headerLen {
			return out, off
		}
		if data[off] != journalVersion {
			return out, off
		}
		kind := Kind(data[off+1])
		n := binary.LittleEndian.Uint32(data[off+2 : off+6])
		sum := binary.LittleEndian.Uint32(data[off+6 : off+10])
		if n > maxRecordBytes || rest-headerLen < int(n) {
			return out, off
		}
		body := data[off+headerLen : off+headerLen+int(n)]
		if crc32.ChecksumIEEE(body) != sum {
			return out, off
		}
		rec, ok := decodeBody(body)
		if !ok || rec.Kind != kind {
			return out, off
		}
		out = append(out, rec)
		off += headerLen + int(n)
	}
}

// checkVersion refuses a journal whose first record another version
// wrote: its records would decode into the wrong shapes, and truncating
// it as a torn tail would destroy it.
func checkVersion(data []byte) error {
	if len(data) > 0 && data[0] != journalVersion {
		return fmt.Errorf("controlplane: journal version %d, want %d", data[0], journalVersion)
	}
	return nil
}

// Journal is the append-only control-plane WAL. Every Append is fsynced
// before it returns: a record the coordinator acted on is on disk.
type Journal struct {
	mu   sync.Mutex
	dir  string
	f    *os.File
	size int64

	appends    uint64
	bytes      uint64
	rotations  uint64
	fsyncTotal uint64
	fsyncMax   uint64
}

// Open creates (or reuses) the directory and opens the journal for
// appending. An existing journal is scanned and its torn tail — bytes
// after the last valid record — truncated away, so appends never follow
// garbage that replay would stop at.
func Open(dir string) (*Journal, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("controlplane: create journal dir: %w", err)
	}
	path := journalPath(dir)
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("controlplane: read journal: %w", err)
	}
	if err := checkVersion(data); err != nil {
		return nil, err
	}
	_, valid := DecodeRecords(data)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("controlplane: open journal: %w", err)
	}
	if valid < len(data) {
		if err := f.Truncate(int64(valid)); err != nil {
			f.Close()
			return nil, fmt.Errorf("controlplane: truncate torn journal tail: %w", err)
		}
	}
	if _, err := f.Seek(int64(valid), 0); err != nil {
		f.Close()
		return nil, fmt.Errorf("controlplane: seek journal: %w", err)
	}
	return &Journal{dir: dir, f: f, size: int64(valid)}, nil
}

// Append frames, writes and fsyncs one record.
func (j *Journal) Append(rec *Record) error {
	frame, err := encodeRecord(rec)
	if err != nil {
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return fmt.Errorf("controlplane: journal closed")
	}
	if _, err := j.f.Write(frame); err != nil {
		return fmt.Errorf("controlplane: append %s record: %w", rec.Kind, err)
	}
	start := time.Now()
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("controlplane: fsync journal: %w", err)
	}
	us := uint64(time.Since(start).Microseconds())
	j.size += int64(len(frame))
	j.appends++
	j.bytes += uint64(len(frame))
	j.fsyncTotal += us
	if us > j.fsyncMax {
		j.fsyncMax = us
	}
	return nil
}

// Size returns the journal's current byte length (the rotation
// trigger's input).
func (j *Journal) Size() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.size
}

// Rotate atomically replaces the journal with a single self-contained
// snapshot record: the new file is written beside the old one, fsynced,
// and renamed over it — a crash at any point leaves either the full old
// journal or the full new one, never a mix.
func (j *Journal) Rotate(snap *State, seq uint64) error {
	frame, err := encodeRecord(&Record{Kind: RecSnapshot, Seq: seq, State: snap})
	if err != nil {
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return fmt.Errorf("controlplane: journal closed")
	}
	path := journalPath(j.dir)
	tmp := path + ".tmp"
	nf, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("controlplane: rotate journal: %w", err)
	}
	if _, err := nf.Write(frame); err == nil {
		err = nf.Sync()
	}
	if cerr := nf.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("controlplane: rotate journal: %w", err)
	}
	j.f.Close()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		j.f = nil
		return fmt.Errorf("controlplane: reopen rotated journal: %w", err)
	}
	j.f = f
	j.size = int64(len(frame))
	j.rotations++
	j.appends++
	j.bytes += uint64(len(frame))
	return nil
}

// Close closes the journal file. Append after Close errors.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	return err
}

// Stats snapshots the journal-side counters.
func (j *Journal) Stats() Stats {
	j.mu.Lock()
	defer j.mu.Unlock()
	return Stats{
		JournalAppends:   j.appends,
		JournalBytes:     j.bytes,
		Rotations:        j.rotations,
		FsyncTotalMicros: j.fsyncTotal,
		FsyncMaxMicros:   j.fsyncMax,
	}
}
