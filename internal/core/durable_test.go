package core

import (
	"encoding/hex"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"seep/internal/plan"
	"seep/internal/state"
	"seep/internal/stream"
)

func mkBufferedCheckpoint(owner plan.InstanceID) *state.Checkpoint {
	cp := mkCheckpoint(owner, 20)
	cp.Buffer.Append(inst("sink", 1), stream.Tuple{TS: 5, Key: 9, Born: 100, Payload: "hello"})
	cp.Buffer.Append(inst("sink", 1), stream.Tuple{TS: 6, Key: 9, Born: 101, Payload: "world"})
	cp.OutClock = 77
	cp.Acks = map[plan.InstanceID]int64{inst("split", 1): 123}
	return cp
}

func TestEncodeDecodeCheckpoint(t *testing.T) {
	cp := mkBufferedCheckpoint(inst("count", 1))
	e := stream.NewEncoder(0)
	if err := state.EncodeCheckpoint(e, cp, state.StringPayloadCodec{}); err != nil {
		t.Fatal(err)
	}
	got, err := state.DecodeCheckpoint(stream.NewDecoder(e.Bytes()), state.StringPayloadCodec{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Instance != cp.Instance || got.Seq != cp.Seq || got.OutClock != 77 {
		t.Errorf("header mismatch: %+v", got)
	}
	if !got.Processing.KV.Equal(cp.Processing.KV) {
		t.Error("processing state mismatch")
	}
	if got.Buffer.Len() != 2 {
		t.Errorf("buffer length = %d", got.Buffer.Len())
	}
	tuples := got.Buffer.Tuples(inst("sink", 1))
	if tuples[0].Payload != "hello" || tuples[1].Payload != "world" {
		t.Errorf("buffered payloads = %v", tuples)
	}
	if tuples[0].Born != 100 {
		t.Errorf("born lost: %v", tuples[0])
	}
	if got.Acks[inst("split", 1)] != 123 {
		t.Errorf("acks = %v", got.Acks)
	}
}

func TestDecodeCheckpointRejectsGarbage(t *testing.T) {
	if _, err := state.DecodeCheckpoint(stream.NewDecoder([]byte("not a checkpoint")), state.StringPayloadCodec{}); err == nil {
		t.Error("garbage accepted")
	}
}

func TestStringPayloadCodecRejectsNonStrings(t *testing.T) {
	if _, err := (state.StringPayloadCodec{}).EncodePayload(42); err == nil {
		t.Error("non-string payload accepted")
	}
}

func TestDurableStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := NewDurableStore(dir, state.StringPayloadCodec{})
	if err != nil {
		t.Fatal(err)
	}
	owner := inst("count", 1)
	host := inst("split", 1)
	cp := mkBufferedCheckpoint(owner)
	if err := s.Store(host, cp); err != nil {
		t.Fatal(err)
	}
	// In-memory view works as usual.
	got, gotHost, ok := s.Latest(owner)
	if !ok || gotHost != host || got.Seq != cp.Seq {
		t.Fatalf("Latest = %v %v %v", got, gotHost, ok)
	}
	// And the checkpoint is on disk.
	if _, err := s.Load(owner); err != nil {
		t.Fatalf("Load: %v", err)
	}

	// Simulate a full process restart: a fresh store over the same dir.
	s2, err := NewDurableStore(dir, state.StringPayloadCodec{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := s2.Latest(owner); ok {
		t.Fatal("fresh store should start empty in memory")
	}
	recovered, skipped, err := s2.LoadAll(func(plan.InstanceID) (plan.InstanceID, error) { return host, nil })
	if err != nil {
		t.Fatal(err)
	}
	if len(skipped) != 0 {
		t.Fatalf("skipped = %v", skipped)
	}
	if len(recovered) != 1 || recovered[0] != owner {
		t.Fatalf("recovered = %v", recovered)
	}
	got2, _, ok := s2.Latest(owner)
	if !ok || !got2.Processing.KV.Equal(cp.Processing.KV) || got2.Buffer.Len() != 2 {
		t.Error("recovered checkpoint differs")
	}
}

func TestDurableStoreDeleteRemovesFile(t *testing.T) {
	dir := t.TempDir()
	s, err := NewDurableStore(dir, state.StringPayloadCodec{})
	if err != nil {
		t.Fatal(err)
	}
	owner := inst("count", 1)
	if err := s.Store(inst("split", 1), mkBufferedCheckpoint(owner)); err != nil {
		t.Fatal(err)
	}
	s.Delete(owner)
	if _, err := s.Load(owner); err == nil {
		t.Error("file survived Delete")
	}
	entries, _ := os.ReadDir(dir)
	for _, ent := range entries {
		if filepath.Ext(ent.Name()) == ".ckpt" {
			t.Errorf("stray checkpoint file %s", ent.Name())
		}
	}
}

func TestDurableStoreCorruptFile(t *testing.T) {
	dir := t.TempDir()
	s, err := NewDurableStore(dir, state.StringPayloadCodec{})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "bogus.ckpt"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	owners, skipped, err := s.LoadAll(func(plan.InstanceID) (plan.InstanceID, error) { return inst("u", 1), nil })
	if err != nil {
		t.Fatalf("corrupt checkpoint should skip, not fail: %v", err)
	}
	if len(owners) != 0 {
		t.Errorf("owners = %v", owners)
	}
	if len(skipped) != 1 || skipped[0].File != "bogus.ckpt" || skipped[0].Err == nil {
		t.Errorf("skipped = %v", skipped)
	}
}

// TestDurableStoreTruncatedFile proves a torn write — a crash mid-
// checkpoint — costs exactly that checkpoint: the rest of the directory
// still loads, and the torn file is reported with a typed error.
func TestDurableStoreTruncatedFile(t *testing.T) {
	dir := t.TempDir()
	s, err := NewDurableStore(dir, state.StringPayloadCodec{})
	if err != nil {
		t.Fatal(err)
	}
	host := inst("split", 1)
	good := inst("count", 1)
	torn := inst("count", 2)
	if err := s.Store(host, mkBufferedCheckpoint(good)); err != nil {
		t.Fatal(err)
	}
	cp := mkBufferedCheckpoint(torn)
	cp.Instance = torn
	if err := s.Store(host, cp); err != nil {
		t.Fatal(err)
	}
	// Truncate the second checkpoint mid-file.
	path := filepath.Join(dir, "count-2.ckpt")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := NewDurableStore(dir, state.StringPayloadCodec{})
	if err != nil {
		t.Fatal(err)
	}
	owners, skipped, err := s2.LoadAll(func(plan.InstanceID) (plan.InstanceID, error) { return host, nil })
	if err != nil {
		t.Fatal(err)
	}
	if len(owners) != 1 || owners[0] != good {
		t.Fatalf("owners = %v, want only %v", owners, good)
	}
	if len(skipped) != 1 || skipped[0].File != "count-2.ckpt" {
		t.Fatalf("skipped = %v", skipped)
	}
	var ce *CorruptCheckpointError
	if !errors.As(error(skipped[0]), &ce) {
		t.Fatalf("skipped entry is not a CorruptCheckpointError: %T", skipped[0])
	}
	if got, _, ok := s2.Latest(good); !ok || got.Buffer.Len() != 2 {
		t.Error("surviving checkpoint did not load intact")
	}
}

// TestDurableStoreSkipsOldLayout: a directory a binary of the previous
// layout (v3, "SEP3") wrote into still recovers. Its file is reported
// as a corrupt checkpoint, not loaded as if this build could read it,
// and a current-layout file beside it loads.
func TestDurableStoreSkipsOldLayout(t *testing.T) {
	dir := t.TempDir()
	s, err := NewDurableStore(dir, state.GobPayloadCodec{})
	if err != nil {
		t.Fatal(err)
	}
	host, current := inst("split", 1), inst("count", 1)
	if err := s.Store(host, mkBufferedCheckpoint(current)); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join("..", "state", "testdata", "v3_int64_full.hex"))
	if err != nil {
		t.Fatal(err)
	}
	v3, err := hex.DecodeString(strings.TrimSpace(string(raw)))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "cnt-2.ckpt"), v3, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := NewDurableStore(dir, state.GobPayloadCodec{})
	if err != nil {
		t.Fatal(err)
	}
	owners, skipped, err := s2.LoadAll(func(plan.InstanceID) (plan.InstanceID, error) { return host, nil })
	if err != nil {
		t.Fatal(err)
	}
	if len(owners) != 1 || owners[0] != current {
		t.Fatalf("owners = %v, want only %v", owners, current)
	}
	var ce *CorruptCheckpointError
	if len(skipped) != 1 || skipped[0].File != "cnt-2.ckpt" || !errors.As(error(skipped[0]), &ce) {
		t.Fatalf("skipped = %v, want the v3 file as a CorruptCheckpointError", skipped)
	}
	if got, _, ok := s2.Latest(current); !ok || got.Buffer.Len() != 2 {
		t.Error("the current-layout checkpoint did not load intact")
	}
}

func TestDurableStoreSanitizesNames(t *testing.T) {
	dir := t.TempDir()
	s, err := NewDurableStore(dir, state.StringPayloadCodec{})
	if err != nil {
		t.Fatal(err)
	}
	owner := plan.InstanceID{Op: "weird/op name", Part: 1}
	cp := mkBufferedCheckpoint(owner)
	cp.Instance = owner
	if err := s.Store(inst("split", 1), cp); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Load(owner); err != nil {
		t.Errorf("load with sanitised name: %v", err)
	}
}
