package state

import (
	"reflect"
	"testing"

	"seep/internal/stream"
)

func TestValueCellBasics(t *testing.T) {
	s := NewStore()
	v := NewValue[float64](s, "sums", Float64Codec{})
	if _, ok := v.Get(1); ok {
		t.Error("empty cell returned a value")
	}
	v.Set(1, 2.5)
	if got := v.Update(1, func(x float64) float64 { return x + 1.5 }); got != 4.0 {
		t.Errorf("Update = %v", got)
	}
	v.Set(2, 10)
	if s.Len() != 2 || v.Len() != 2 {
		t.Errorf("Len = %d/%d", s.Len(), v.Len())
	}
	if s.DirtyCount() != 2 {
		t.Errorf("DirtyCount = %d", s.DirtyCount())
	}
	v.Delete(2)
	if _, ok := v.Get(2); ok {
		t.Error("deleted key still present")
	}
	v.Transform(1, func(x float64) (float64, bool) { return 0, false })
	if v.Len() != 0 {
		t.Error("Transform keep=false did not delete")
	}
	v.Transform(3, func(x float64) (float64, bool) { return x + 7, true })
	if got, _ := v.Get(3); got != 7 {
		t.Errorf("Transform on absent key = %v", got)
	}
}

func TestMapCellBasics(t *testing.T) {
	s := NewStore()
	m := NewMap[int64](s, "counts", Int64Codec{})
	m.Update(1, "a", func(c int64) int64 { return c + 1 })
	m.Update(1, "a", func(c int64) int64 { return c + 1 })
	m.Put(1, "b", 5)
	m.Put(2, "a", 9)
	if got, _ := m.Get(1, "a"); got != 2 {
		t.Errorf("Get = %d", got)
	}
	if m.Len() != 2 || m.FieldCount() != 3 {
		t.Errorf("Len/FieldCount = %d/%d", m.Len(), m.FieldCount())
	}
	var seen []string
	m.ForEach(func(k stream.Key, f string, v int64) { seen = append(seen, f) })
	if !reflect.DeepEqual(seen, []string{"a", "b", "a"}) && !reflect.DeepEqual(seen, []string{"a", "a", "b"}) {
		// Keys ascend; fields sort within a key.
		t.Errorf("ForEach order = %v", seen)
	}
	m.Delete(2)
	if m.Len() != 1 {
		t.Error("Delete did not drop key")
	}
	drained := m.Drain()
	if m.FieldCount() != 0 || drained[1]["a"] != 2 {
		t.Errorf("Drain = %v", drained)
	}
}

// TestStoreSnapshotRestoreMultiCell: a snapshot of several cells sharing
// the key space restores into a fresh store exactly, including keys held
// by only one cell.
func TestStoreSnapshotRestoreMultiCell(t *testing.T) {
	mk := func() (*Store, *Value[float64], *Map[int64]) {
		s := NewStore()
		return s, NewValue[float64](s, "v", Float64Codec{}), NewMap[int64](s, "m", Int64Codec{})
	}
	s1, v1, m1 := mk()
	v1.Set(1, 1.5)
	v1.Set(2, 2.5)
	m1.Put(2, "x", 7)
	m1.Put(3, "y", 8)

	kv, err := s1.TakeCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	if kv.Len() != 3 {
		t.Fatalf("snapshot keys = %d, want 3", kv.Len())
	}
	s2, v2, m2 := mk()
	if err := s2.Restore(kv); err != nil {
		t.Fatal(err)
	}
	if got, _ := v2.Get(1); got != 1.5 {
		t.Errorf("restored v[1] = %v", got)
	}
	if got, _ := v2.Get(2); got != 2.5 {
		t.Errorf("restored v[2] = %v", got)
	}
	if got, _ := m2.Get(2, "x"); got != 7 {
		t.Errorf("restored m[2][x] = %d", got)
	}
	if got, _ := m2.Get(3, "y"); got != 8 {
		t.Errorf("restored m[3][y] = %d", got)
	}
	// Restore into a store missing the cell is a loud error, not silent
	// state loss.
	s3 := NewStore()
	NewValue[float64](s3, "v", Float64Codec{})
	if err := s3.Restore(kv); err == nil {
		t.Error("restore with unknown cell succeeded")
	}
}

func TestStoreDefaultAndJSONCodecs(t *testing.T) {
	type rec struct {
		N int
		S string
	}
	s := NewStore()
	g := NewValue[rec](s, "gob", nil) // nil codec defaults to gob
	j := NewValue[map[string]int64](s, "json", JSONCodec[map[string]int64]{})
	g.Set(1, rec{N: 4, S: "hi"})
	j.Set(1, map[string]int64{"a": 1, "b": 2})
	kv, err := s.TakeCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	s2 := NewStore()
	g2 := NewValue[rec](s2, "gob", nil)
	j2 := NewValue[map[string]int64](s2, "json", JSONCodec[map[string]int64]{})
	if err := s2.Restore(kv); err != nil {
		t.Fatal(err)
	}
	if got, _ := g2.Get(1); got != (rec{N: 4, S: "hi"}) {
		t.Errorf("gob round trip = %+v", got)
	}
	if got, _ := j2.Get(1); got["a"] != 1 || got["b"] != 2 {
		t.Errorf("json round trip = %v", got)
	}
}

// TestStoreSnapshotIsDeepCopy: mutations after a snapshot never leak
// into it (checkpoint-state must hand an isolated copy, §3.1).
func TestStoreSnapshotIsDeepCopy(t *testing.T) {
	s := NewStore()
	m := NewMap[int64](s, "m", Int64Codec{})
	m.Put(1, "a", 1)
	kv, err := s.TakeCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	m.Put(1, "a", 99)
	s2 := NewStore()
	m2 := NewMap[int64](s2, "m", Int64Codec{})
	if err := s2.Restore(kv); err != nil {
		t.Fatal(err)
	}
	if got, _ := m2.Get(1, "a"); got != 1 {
		t.Errorf("snapshot reflected later mutation: %d", got)
	}
}

// TestStorePartitionMergeRoundTrip: a store snapshot split by key ranges
// (Algorithm 2) and merged back reconstructs the original state — the
// property scale out and scale in rest on, now for managed cells.
func TestStorePartitionMergeRoundTrip(t *testing.T) {
	s := NewStore()
	m := NewMap[int64](s, "counts", Int64Codec{})
	for i := 0; i < 257; i++ {
		k := stream.Key(stream.Mix64(uint64(i)))
		m.Put(k, "item", int64(i))
	}
	kv, err := s.TakeCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	p := NewProcessing(1)
	p.KV = kv
	parts := p.Partition(FullRange.SplitEven(3))
	total := 0
	for _, part := range parts {
		total += part.Len()
	}
	if total != 257 {
		t.Fatalf("partitioned keys = %d, want 257", total)
	}
	merged, err := MergeProcessing(parts...)
	if err != nil {
		t.Fatal(err)
	}
	s2 := NewStore()
	m2 := NewMap[int64](s2, "counts", Int64Codec{})
	if err := s2.Restore(merged.KV); err != nil {
		t.Fatal(err)
	}
	if m2.Len() != 257 {
		t.Fatalf("restored keys = %d", m2.Len())
	}
	for i := 0; i < 257; i++ {
		k := stream.Key(stream.Mix64(uint64(i)))
		if got, _ := m2.Get(k, "item"); got != int64(i) {
			t.Fatalf("restored [%d] = %d, want %d", k, got, i)
		}
	}
}

// TestDeltaChainReconstructsFullSnapshot: a base checkpoint plus k
// deltas, applied in sequence, reconstruct the exact full snapshot the
// store would produce at the end — including updates, inserts and
// deletes. This is the invariant incremental checkpointing rests on.
func TestDeltaChainReconstructsFullSnapshot(t *testing.T) {
	s := NewStore()
	v := NewValue[float64](s, "v", Float64Codec{})
	m := NewMap[int64](s, "m", Int64Codec{})
	for i := 0; i < 100; i++ {
		v.Set(stream.Key(i), float64(i))
		if i%3 == 0 {
			m.Put(stream.Key(i), "f", int64(i))
		}
	}
	base, err := s.TakeCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	folded := NewProcessing(1)
	folded.KV = base

	ts := stream.NewTSVector(1)
	seq := uint64(1)
	for round := 0; round < 4; round++ {
		// Churn a small subset: update, insert, delete.
		v.Update(stream.Key(round), func(x float64) float64 { return x + 100 })
		v.Set(stream.Key(1000+round), 7)
		v.Delete(stream.Key(50 + round))
		m.Delete(stream.Key(3 * round))
		ts.Advance(0, int64(round+1))
		if s.DirtyCount() == 0 {
			t.Fatal("no dirty keys tracked")
		}
		d, err := s.TakeDelta(ts, seq, seq+1)
		if err != nil {
			t.Fatal(err)
		}
		seq++
		if s.DirtyCount() != 0 {
			t.Error("TakeDelta did not reset tracking")
		}
		if err := apply(d, folded); err != nil {
			t.Fatal(err)
		}
	}

	full, err := s.TakeCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	want := NewProcessing(1)
	want.KV = full
	want.TS = ts.Clone()
	if !folded.Equal(want) {
		t.Fatalf("delta chain diverged: folded %d keys, full %d keys", folded.Len(), want.Len())
	}
}

// TestDeltaSmallerThanFull: with small churn over a large keyspace the
// delta footprint is a fraction of the full snapshot — the size win that
// motivates incremental checkpoints.
func TestDeltaSmallerThanFull(t *testing.T) {
	s := NewStore()
	m := NewMap[int64](s, "m", Int64Codec{})
	for i := 0; i < 10_000; i++ {
		m.Put(stream.Key(stream.Mix64(uint64(i))), "f", int64(i))
	}
	if _, err := s.TakeCheckpoint(); err != nil {
		t.Fatal(err)
	}
	fullSize := s.LastFullSize()
	for i := 0; i < 100; i++ {
		m.Update(stream.Key(stream.Mix64(uint64(i))), "f", func(c int64) int64 { return c + 1 })
	}
	d, err := s.TakeDelta(stream.NewTSVector(1), 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if d.Size() >= fullSize/10 {
		t.Errorf("delta %d bytes not ≪ full %d bytes", d.Size(), fullSize)
	}
	if float64(d.Size()) > maxDeltaFraction*float64(fullSize) {
		t.Error("maxDeltaFraction rejected a 1% delta")
	}
}

// apply folds d into p, as a backup host folds a delta into the
// checkpoint it stores; on error p is left as it was.
func apply(d *Delta, p *Processing) error {
	f, err := (&DeltaCheckpoint{Delta: d, Buffer: NewBuffer()}).Checkpoint().Fold(&Checkpoint{Processing: p})
	if err == nil {
		p.KV, p.TS = f.Processing.KV, f.Processing.TS
	}
	return err
}

func TestStoreDuplicateCellPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("duplicate cell name did not panic")
		}
	}()
	s := NewStore()
	NewValue[int64](s, "x", Int64Codec{})
	NewValue[float64](s, "x", Float64Codec{})
}

// TestFullCheckpointsKeepNoDirtySet: with incremental checkpoints off a
// capture's full checkpoint stops dirty-key tracking, so writes pay for
// no set nothing reads; turning them on costs one more full checkpoint
// (the delta the untracked store cannot give), after which deltas carry
// exactly the keys written.
func TestFullCheckpointsKeepNoDirtySet(t *testing.T) {
	s := NewStore()
	v := NewValue[int64](s, "n", Int64Codec{})
	in := NewInstance(s, 1)
	id := inst("count", 1)
	for k := range 100 {
		v.Set(stream.Key(k), int64(k))
	}
	if cp := in.BeginCheckpoint(id).Checkpoint(false); cp == nil || cp.Base != 0 {
		t.Fatalf("incremental off: capture %+v, want a full checkpoint", cp)
	}
	for k := range 100 {
		v.Update(stream.Key(k), func(x int64) int64 { return x + 1 })
	}
	if n := s.DirtyCount(); n != 0 {
		t.Fatalf("after a full checkpoint with incremental off, 100 updates left %d dirty keys", n)
	}
	if _, err := s.TakeDelta(in.TS, 1, 2); err == nil {
		t.Fatal("an untracked store gave a delta")
	}

	if cp := in.BeginCheckpoint(id).Checkpoint(true); cp == nil || cp.Base != 0 {
		t.Fatalf("first capture with incremental on: %+v, want a full checkpoint", cp)
	}
	v.Set(7, 70)
	if n := s.DirtyCount(); n != 1 {
		t.Fatalf("tracking did not resume: %d dirty keys, want 1", n)
	}
	if cp := in.BeginCheckpoint(id).Checkpoint(true); cp == nil || cp.Base == 0 || cp.Processing.KV.Len() != 1 {
		t.Fatalf("second capture with incremental on: %+v, want a delta of one key", cp)
	}
}
