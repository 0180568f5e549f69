package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"seep/internal/plan"
	"seep/internal/state"
	"seep/internal/stream"
)

// countingCodec counts what reaches the tag-0 fallback: a DecodePayload
// call means a checkpoint body was decoded.
type countingCodec struct{ decodes int }

func (c *countingCodec) EncodePayload(p any) ([]byte, error) {
	return state.GobPayloadCodec{}.EncodePayload(p)
}

func (c *countingCodec) DecodePayload(b []byte) (any, error) {
	c.decodes++
	return state.GobPayloadCodec{}.DecodePayload(b)
}

// shippedBlob is a checkpoint as a worker ships it, with one buffered
// tuple whose payload type (uint16) has no wire tag.
func shippedBlob(t *testing.T, owner plan.InstanceID, seq uint64) (state.CheckpointHeader, []byte, *state.Checkpoint) {
	t.Helper()
	cp := mkBufferedCheckpoint(owner)
	cp.Seq = seq
	cp.Buffer.Append(inst("sink", 1), stream.Tuple{TS: 7, Key: 9, Born: 102, Payload: uint16(7)})
	blob, err := state.MarshalCheckpoint(cp, state.GobPayloadCodec{})
	if err != nil {
		t.Fatal(err)
	}
	h, err := state.DecodeCheckpointHeader(blob)
	if err != nil {
		t.Fatal(err)
	}
	return h, blob, cp
}

// TestBackupStoreKeepsBytesUntilAsked: storing an encoded checkpoint
// decodes nothing and accounts for the blob's length; the first Latest
// decodes the body, later ones reuse it; a delta folds into it.
func TestBackupStoreKeepsBytesUntilAsked(t *testing.T) {
	s := NewBackupStore()
	codec := &countingCodec{}
	owner, host := inst("count", 1), inst("split", 1)
	for seq := uint64(1); seq <= 3; seq++ {
		h, blob, _ := shippedBlob(t, owner, seq)
		if err := s.StoreEncoded(host, h, blob, codec); err != nil {
			t.Fatal(err)
		}
		if s.Bytes() != len(blob) {
			t.Fatalf("Bytes = %d, want the blob's %d", s.Bytes(), len(blob))
		}
	}
	h, blob, want := shippedBlob(t, owner, 2)
	if err := s.StoreEncoded(host, h, blob, codec); err == nil {
		t.Error("stale encoded checkpoint accepted")
	}
	if ship := s.ShipStats(); ship.Fulls != 3 || ship.FullBytes != uint64(3*len(blob)) {
		t.Errorf("ship stats = %+v, want 3 fulls of %d bytes", ship, len(blob))
	}
	if codec.decodes != 0 {
		t.Fatalf("%d payload decodes before anyone asked for the checkpoint", codec.decodes)
	}

	got, gotHost, ok := s.Latest(owner)
	if !ok || gotHost != host || got.Seq != 3 || !got.Processing.Equal(want.Processing) || got.Buffer.Len() != 3 {
		t.Fatalf("Latest = %+v %v %v", got, gotHost, ok)
	}
	if codec.decodes != 1 {
		t.Fatalf("first Latest made %d payload decodes, want 1", codec.decodes)
	}
	if again, _, _ := s.Latest(owner); again != got || codec.decodes != 1 {
		t.Error("second Latest decoded again instead of reusing the first result")
	}

	var changed state.RunBuilder
	changed.Append(5, []byte{1})
	dc := &state.Checkpoint{Instance: owner, Seq: 4, Base: 3, Buffer: state.NewBuffer(),
		Processing: &state.Processing{KV: changed.Run(), TS: stream.TSVector{9}}}
	h, blob, _ = shippedBlob(t, owner, 3)
	fresh := NewBackupStore()
	if err := fresh.StoreEncoded(host, h, blob, codec); err != nil {
		t.Fatal(err)
	}
	if err := fresh.Store(host, dc); err != nil {
		t.Fatalf("delta onto an encoded base: %v", err)
	}
	if folded, _, ok := fresh.Latest(owner); !ok || folded.Seq != 4 || !hasKey(folded.Processing.KV, 5) {
		t.Errorf("fold over an encoded base = %+v %v", folded, ok)
	}
	fresh.Delete(owner)
	if fresh.Bytes() != 0 || fresh.Len() != 0 {
		t.Errorf("after Delete: %d bytes, %d entries", fresh.Bytes(), fresh.Len())
	}
}

// TestCorruptBodyIsAMissingCheckpoint: a stored blob whose header and
// framing are fine but whose body does not decode is dropped when first
// needed — the planner sees ErrNoCheckpoint (and recovery of a lone
// victim its empty-state fallback), never a panic or a half-read
// checkpoint.
func TestCorruptBodyIsAMissingCheckpoint(t *testing.T) {
	m, err := NewManager(wordQuery())
	if err != nil {
		t.Fatal(err)
	}
	owner := inst("count", 1)
	host, err := m.BackupTarget(owner)
	if err != nil {
		t.Fatal(err)
	}
	h, blob, _ := shippedBlob(t, owner, 1)
	// The processing section opens with its one-entry timestamp vector
	// ([1][20]), its empty cell table ([0]) and its entry count (20
	// keys); claim more entries than there are bytes.
	opening := binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint32(nil, 1), 20)
	opening = binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint32(opening, 0), 20)
	at := bytes.Index(blob, opening)
	if at < 0 {
		t.Fatal("processing section not found")
	}
	binary.LittleEndian.PutUint32(blob[at+16:], 1<<30)
	if _, err := state.DecodeCheckpointHeader(blob); err != nil {
		t.Fatalf("header of the garbled blob must still read: %v", err)
	}
	if err := m.Backups().StoreEncoded(host, h, blob, state.GobPayloadCodec{}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.PlanReplace(owner, 2); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("scale out from a corrupt backup: %v, want ErrNoCheckpoint", err)
	}
	s := m.Backups()
	if ship := s.ShipStats(); ship.Corrupt != 1 || s.Len() != 0 || s.Bytes() != 0 {
		t.Errorf("after the failed decode: %+v, %d entries, %d bytes", ship, s.Len(), s.Bytes())
	}
	tp, err := m.PlanRecovery(owner, 1)
	if err != nil || tp.Checkpoints[0].Processing.Len() != 0 {
		t.Errorf("recovery without a usable backup: %v, want the empty-state fallback", err)
	}
}

// TestDurableStoreWritesTheShippedBytes: the file of an encoded store is
// the blob, LoadAll reads headers only, and the reloaded checkpoint
// decodes on demand. A file in the previous layout is skipped.
func TestDurableStoreWritesTheShippedBytes(t *testing.T) {
	dir := t.TempDir()
	owner, host := inst("count", 1), inst("split", 1)
	s, err := NewDurableStore(dir, state.GobPayloadCodec{})
	if err != nil {
		t.Fatal(err)
	}
	h, blob, want := shippedBlob(t, owner, 5)
	if err := s.StoreEncoded(host, h, blob); err != nil {
		t.Fatal(err)
	}
	onDisk, err := os.ReadFile(filepath.Join(dir, "count-1.ckpt"))
	if err != nil || !bytes.Equal(onDisk, blob) {
		t.Fatalf("file is not the shipped blob (%v)", err)
	}
	old := append([]byte(nil), blob...)
	binary.LittleEndian.PutUint32(old, 0x53454550) // "SEEP", the previous layout's magic
	if err := os.WriteFile(filepath.Join(dir, "count-2.ckpt"), old, 0o644); err != nil {
		t.Fatal(err)
	}

	codec := &countingCodec{}
	s2, err := NewDurableStore(dir, codec)
	if err != nil {
		t.Fatal(err)
	}
	owners, skipped, err := s2.LoadAll(func(plan.InstanceID) (plan.InstanceID, error) { return host, nil })
	if err != nil || len(owners) != 1 || owners[0] != owner {
		t.Fatalf("LoadAll = %v, %v", owners, err)
	}
	var ce *CorruptCheckpointError
	if len(skipped) != 1 || skipped[0].File != "count-2.ckpt" || !errors.As(error(skipped[0]), &ce) {
		t.Fatalf("old-layout file: skipped = %v", skipped)
	}
	if codec.decodes != 0 {
		t.Errorf("LoadAll decoded %d payloads; it should read headers", codec.decodes)
	}
	got, _, ok := s2.Latest(owner)
	if !ok || got.Seq != 5 || !got.Processing.Equal(want.Processing) || got.Buffer.Len() != 3 || codec.decodes != 1 {
		t.Errorf("reloaded checkpoint = %+v %v after %d payload decodes", got, ok, codec.decodes)
	}
	if fromDisk, err := s2.Load(owner); err != nil || fromDisk.Seq != 5 {
		t.Errorf("Load = %+v, %v", fromDisk, err)
	}
}

func hasKey(r state.Run, k stream.Key) bool {
	_, ok := r.Get(k)
	return ok
}
