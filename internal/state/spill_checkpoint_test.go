package state

import (
	"os"
	"sync"
	"testing"

	"seep/internal/plan"
	"seep/internal/stream"
)

// Spill × checkpoint interplay: a store running under a memory ceiling
// must checkpoint, restore, partition and merge with exact per-key
// parity — spilled keys are transparent to every full-state operation,
// and restored stores keep spilling under their own ceilings.

// spillStore builds a store with two cells (a map and a value sharing
// the key space), a tight ceiling, and n keys written through the
// cells, enough to force spill passes.
func spillStore(t *testing.T, n int, limit int64) (*Store, *Map[int64], *Value[int64]) {
	t.Helper()
	s := NewStore()
	m := NewMap[int64](s, "counts", Int64Codec{})
	v := NewValue[int64](s, "totals", Int64Codec{})
	if err := s.EnableSpill(t.TempDir(), limit); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.CloseSpill() })
	for i := 0; i < n; i++ {
		m.Put(stream.Key(i), "f", int64(i))
		if i%2 == 0 {
			v.Set(stream.Key(i), int64(2*i))
		}
	}
	return s, m, v
}

// verifyKeys checks exact per-key parity for keys [lo, hi) through the
// cell accessors — the transparent-materialisation path.
func verifyKeys(t *testing.T, m *Map[int64], v *Value[int64], lo, hi int) {
	t.Helper()
	misses := 0
	for i := lo; i < hi; i++ {
		if got, ok := m.Get(stream.Key(i), "f"); !ok || got != int64(i) {
			misses++
			if misses <= 5 {
				t.Errorf("counts[%d] = %d, %v; want %d, true", i, got, ok, i)
			}
		}
		if i%2 == 0 {
			if got, ok := v.Get(stream.Key(i)); !ok || got != int64(2*i) {
				misses++
				if misses <= 5 {
					t.Errorf("totals[%d] = %d, %v; want %d, true", i, got, ok, 2*i)
				}
			}
		}
	}
	if misses > 5 {
		t.Errorf("... and %d more per-key mismatches", misses-5)
	}
}

func TestSpillStoreCheckpointRoundTrip(t *testing.T) {
	const n = 5000
	s, _, _ := spillStore(t, n, 8<<10)
	st := s.SpillStats()
	if st.Spills == 0 || st.SpilledKeys == 0 {
		t.Fatalf("ceiling never engaged: %+v", st)
	}

	// A full checkpoint materialises every spilled key.
	kv, err := s.TakeCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	if kv.Len() != n {
		t.Fatalf("checkpoint has %d keys, want %d", kv.Len(), n)
	}
	if err := s.SpillErr(); err != nil {
		t.Fatal(err)
	}

	// Restore into a fresh store under its own ceiling: parity through
	// the accessors, which materialise re-spilled keys on demand.
	s2 := NewStore()
	m2 := NewMap[int64](s2, "counts", Int64Codec{})
	v2 := NewValue[int64](s2, "totals", Int64Codec{})
	if err := s2.EnableSpill(t.TempDir(), 8<<10); err != nil {
		t.Fatal(err)
	}
	defer s2.CloseSpill()
	if err := s2.Restore(kv); err != nil {
		t.Fatal(err)
	}
	verifyKeys(t, m2, v2, 0, n)
	if err := s2.SpillErr(); err != nil {
		t.Fatal(err)
	}
}

func TestSpillStorePartitionMergeParity(t *testing.T) {
	const n = 4000
	s, _, _ := spillStore(t, n, 8<<10)
	kv, err := s.TakeCheckpoint()
	if err != nil {
		t.Fatal(err)
	}

	// Partition the checkpoint in two (Algorithm 2), restore each part
	// into its own spill-enabled store.
	parent := &Checkpoint{
		Instance:   plan.InstanceID{Op: "count", Part: 0},
		Seq:        1,
		Processing: &Processing{KV: kv, TS: stream.NewTSVector(1)},
		Buffer:     NewBuffer(),
	}
	newIDs := []plan.InstanceID{{Op: "count", Part: 0}, {Op: "count", Part: 1}}
	ranges := FullRange.SplitEven(2)
	parts, err := PartitionCheckpoint(parent, newIDs, ranges)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for i, part := range parts {
		for k := range part.Processing.KV.All() {
			if !ranges[i].Contains(k) {
				t.Fatalf("partition %d holds key %d outside %v", i, k, ranges[i])
			}
		}
		total += part.Processing.Len()
	}
	if total != n {
		t.Fatalf("partitions hold %d keys, want %d", total, n)
	}

	stores := make([]*Store, len(parts))
	maps := make([]*Map[int64], len(parts))
	vals := make([]*Value[int64], len(parts))
	for i, part := range parts {
		stores[i] = NewStore()
		maps[i] = NewMap[int64](stores[i], "counts", Int64Codec{})
		vals[i] = NewValue[int64](stores[i], "totals", Int64Codec{})
		if err := stores[i].EnableSpill(t.TempDir(), 4<<10); err != nil {
			t.Fatal(err)
		}
		defer stores[i].CloseSpill()
		if err := stores[i].Restore(part.Processing.KV); err != nil {
			t.Fatal(err)
		}
	}
	// Every original key lands in exactly one partition with its value
	// intact, readable through the spilling accessors.
	for i := 0; i < n; i++ {
		pi := 0
		if !ranges[0].Contains(stream.Key(i)) {
			pi = 1
		}
		if got, ok := maps[pi].Get(stream.Key(i), "f"); !ok || got != int64(i) {
			t.Fatalf("partition %d counts[%d] = %d, %v; want %d, true", pi, i, got, ok, i)
		}
	}

	// Merge the partitions back (scale-in) and restore into one store.
	cps := make([]*Checkpoint, len(stores))
	for i, st := range stores {
		pkv, err := st.TakeCheckpoint()
		if err != nil {
			t.Fatal(err)
		}
		cps[i] = &Checkpoint{
			Instance:   newIDs[i],
			Seq:        2,
			Processing: &Processing{KV: pkv, TS: stream.NewTSVector(1)},
			Buffer:     NewBuffer(),
		}
	}
	merged, err := MergeCheckpoints(plan.InstanceID{Op: "count", Part: 0}, cps...)
	if err != nil {
		t.Fatal(err)
	}
	if merged.Processing.Len() != n {
		t.Fatalf("merged checkpoint has %d keys, want %d", merged.Processing.Len(), n)
	}
	s3 := NewStore()
	m3 := NewMap[int64](s3, "counts", Int64Codec{})
	v3 := NewValue[int64](s3, "totals", Int64Codec{})
	if err := s3.EnableSpill(t.TempDir(), 8<<10); err != nil {
		t.Fatal(err)
	}
	defer s3.CloseSpill()
	if err := s3.Restore(merged.Processing.KV); err != nil {
		t.Fatal(err)
	}
	verifyKeys(t, m3, v3, 0, n)
	for _, st := range append(stores, s3) {
		if err := st.SpillErr(); err != nil {
			t.Fatal(err)
		}
	}
}

// Restore replaces the whole store: spilled fragments of the old state
// must be discarded, never resurrected — and spilling keeps working
// for the new contents.
func TestSpillStoreRestoreDiscardsOldSpill(t *testing.T) {
	const n = 3000
	s, m, _ := spillStore(t, n, 8<<10)
	if st := s.SpillStats(); st.SpilledKeys == 0 {
		t.Fatalf("ceiling never engaged: %+v", st)
	}

	// New state: a disjoint key range with different values.
	repl := NewStore()
	rm := NewMap[int64](repl, "counts", Int64Codec{})
	for i := n; i < n+100; i++ {
		rm.Put(stream.Key(i), "f", int64(100*i))
	}
	kv, err := repl.TakeCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Restore(kv); err != nil {
		t.Fatal(err)
	}
	if st := s.SpillStats(); st.SpilledKeys != 0 {
		t.Fatalf("spilled fragments survived restore: %+v", st)
	}
	if got := s.Len(); got != 100 {
		t.Fatalf("restored store holds %d keys, want 100", got)
	}
	if _, ok := m.Get(stream.Key(0), "f"); ok {
		t.Fatal("old spilled key resurrected after restore")
	}
	// Growth after restore re-engages the ceiling.
	for i := 0; i < n; i++ {
		m.Put(stream.Key(i), "f", int64(i))
	}
	if st := s.SpillStats(); st.SpilledKeys == 0 {
		t.Fatalf("ceiling disarmed by restore: %+v", st)
	}
	for i := n; i < n+100; i++ {
		if got, ok := m.Get(stream.Key(i), "f"); !ok || got != int64(100*i) {
			t.Fatalf("counts[%d] = %d, %v; want %d, true", i, got, ok, 100*i)
		}
	}
}

// Checkpoints race writers under the ceiling without torn state: every
// checkpoint observes a full prefix of the writes, and the final state
// is exact (run with -race).
func TestSpillStoreConcurrentCheckpoints(t *testing.T) {
	const n, writers = 2000, 4
	s := NewStore()
	m := NewMap[int64](s, "counts", Int64Codec{})
	if err := s.EnableSpill(t.TempDir(), 4<<10); err != nil {
		t.Fatal(err)
	}
	defer s.CloseSpill()

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += writers {
				m.Put(stream.Key(i), "f", int64(i))
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			if _, err := s.TakeCheckpoint(); err != nil {
				t.Errorf("checkpoint %d: %v", i, err)
				return
			}
		}
	}()
	wg.Wait()
	<-done

	kv, err := s.TakeCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	if kv.Len() != n {
		t.Fatalf("final checkpoint has %d keys, want %d", kv.Len(), n)
	}
	for i := 0; i < n; i++ {
		if got, ok := m.Get(stream.Key(i), "f"); !ok || got != int64(i) {
			t.Fatalf("counts[%d] = %d, %v; want %d, true", i, got, ok, i)
		}
	}
	if err := s.SpillErr(); err != nil {
		t.Fatal(err)
	}
}

// Incremental checkpoints stay exact when dirty keys have been spilled
// between the write and the delta extraction.
func TestSpillStoreDeltaMaterialisesDirtyKeys(t *testing.T) {
	const n = 3000
	s, m, _ := spillStore(t, n, 8<<10)
	base, err := s.TakeCheckpoint()
	if err != nil {
		t.Fatal(err)
	}

	// Touch a sparse set, then churn enough writes elsewhere that spill
	// passes run and may evict the dirty keys.
	for i := 0; i < 100; i++ {
		m.Put(stream.Key(i*17%n), "f", int64(-i))
	}
	for i := n; i < 2*n; i++ {
		m.Put(stream.Key(i), "f", int64(i))
	}
	d, err := s.TakeDelta(stream.NewTSVector(1), 1, 2)
	if err != nil {
		t.Fatal(err)
	}

	// Every touched key must appear in the delta even if a spill pass
	// evicted it in between.
	for i := 0; i < 100; i++ {
		k := stream.Key(i * 17 % n)
		if _, ok := d.Changed.Get(k); !ok {
			t.Fatalf("dirty key %d missing from delta", k)
		}
	}

	// Base + delta must equal a full observation of the live store.
	p := &Processing{KV: base, TS: stream.NewTSVector(1)}
	if err := apply(d, p); err != nil {
		t.Fatal(err)
	}
	want, err := s.TakeCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	if want.Len() != 2*n {
		t.Fatalf("live store holds %d keys, want %d", want.Len(), 2*n)
	}
	if !p.KV.Equal(want) {
		t.Fatalf("base+delta holds %d keys, live store %d", p.Len(), want.Len())
	}
	restored := NewStore()
	rm := NewMap[int64](restored, "counts", Int64Codec{})
	NewValue[int64](restored, "totals", Int64Codec{})
	if err := restored.Restore(p.KV); err != nil {
		t.Fatal(err)
	}
	if got, ok := rm.Get(stream.Key(17), "f"); !ok || got != -1 {
		t.Fatalf("restored counts[17] = %d, %v; want -1, true", got, ok)
	}
	if got, ok := rm.Get(stream.Key(n+5), "f"); !ok || got != int64(n+5) {
		t.Fatalf("restored counts[%d] = %d, %v; want %d, true", n+5, got, ok, n+5)
	}
}

// chunkFiles returns how many chunk files dir holds.
func chunkFiles(t *testing.T, dir string) int {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	return len(ents)
}

func TestSpillStorePointGetLoadsOneChunk(t *testing.T) {
	const n = 20000
	s, m, v := spillStore(t, n, 8<<10)
	sp := s.spill.Load()
	before := s.SpillStats()
	files := chunkFiles(t, sp.dir)
	if files < 2 || before.Loads != 0 {
		t.Fatalf("want several chunks on disk and none loaded: %d files, %+v", files, before)
	}
	var k stream.Key
	for k = range sp.spilled.all {
		if k%2 == 0 { // a key both cells hold
			break
		}
	}
	verifyKeys(t, m, v, int(k), int(k)+1)

	after := s.SpillStats()
	if after.Loads == 0 || after.Loads >= after.SpilledTotal || after.Loads > spillChunkKeys {
		t.Errorf("one Get loaded %d of %d spilled keys; want one chunk's, at most %d", after.Loads, after.SpilledTotal, spillChunkKeys)
	}
	if got := chunkFiles(t, sp.dir); got != files-1 {
		t.Errorf("chunk files %d → %d; want one removed", files, got)
	}
	if after.SpilledKeys != before.SpilledKeys-after.Loads {
		t.Errorf("spilled keys %d → %d after loading %d", before.SpilledKeys, after.SpilledKeys, after.Loads)
	}
}

func TestSpillStoreCloseRemovesFiles(t *testing.T) {
	const n = 5000
	for _, own := range []bool{true, false} {
		s := NewStore()
		v := NewValue[int64](s, "totals", Int64Codec{})
		dir := ""
		if !own {
			dir = t.TempDir()
		}
		if err := s.EnableSpill(dir, 8<<10); err != nil {
			t.Fatal(err)
		}
		for i := range n {
			v.Set(stream.Key(i), int64(i))
		}
		dir = s.spill.Load().dir
		if chunkFiles(t, dir) == 0 {
			t.Fatalf("own=%v: nothing spilled", own)
		}
		if err := s.CloseSpill(); err != nil {
			t.Fatal(err)
		}
		if own {
			if _, err := os.Stat(dir); !os.IsNotExist(err) {
				t.Errorf("the store's own spill dir survives CloseSpill: %v", err)
			}
		} else if got := chunkFiles(t, dir); got != 0 {
			t.Errorf("%d chunk files survive CloseSpill", got)
		}
		if v.Len() != n {
			t.Errorf("own=%v: %d keys after CloseSpill, want %d", own, v.Len(), n)
		}
	}
}
