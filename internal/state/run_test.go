package state

import (
	"bytes"
	"encoding/binary"
	"iter"
	"maps"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"seep/internal/plan"
	"seep/internal/stream"
)

// runModel pairs a store and the checkpoint its backup host holds with
// plain-map references of both. The store has two Value cells, v and w,
// and a Map cell m, registered in that order; w draws its keys from v's
// pool or from a pool of its own.
type runModel struct {
	t *testing.T

	store      *Store
	v, w       *Value[int64]
	m          *Map[int64]
	refV, refW map[stream.Key]int64
	refM       map[stream.Key]map[string]int64
	dirty      map[stream.Key]bool
	key, wkey  func() stream.Key

	backup    *Processing // base checkpoint with every delta since folded in
	refBackup map[stream.Key][]byte
	seq       uint64
}

// modelCells registers the model's cells on s.
func modelCells(s *Store) (v, w *Value[int64], m *Map[int64]) {
	return NewValue[int64](s, "v", Int64Codec{}), NewValue[int64](s, "w", Int64Codec{}), NewMap[int64](s, "m", Int64Codec{})
}

func newRunModel(t *testing.T, key, wkey func() stream.Key) *runModel {
	s := NewStore()
	// A one-byte ceiling: a forced spill pass moves every key not touched
	// since the last one to disk.
	if err := s.EnableSpill(t.TempDir(), 1); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.CloseSpill() })
	md := &runModel{
		t: t, store: s, key: key, wkey: wkey,
		refV: map[stream.Key]int64{}, refW: map[stream.Key]int64{}, refM: map[stream.Key]map[string]int64{},
		dirty:  map[stream.Key]bool{},
		backup: NewProcessing(1), refBackup: map[stream.Key][]byte{},
	}
	md.v, md.w, md.m = modelCells(s)
	return md
}

// refRecord is the reference encoding of k's record in the model store,
// the bytes behind its length: the cell mask over the table (v, w, m),
// then each present value behind its length, spelled out independently
// of the capture under test.
func (md *runModel) refRecord(k stream.Key) []byte {
	var mask uint64
	var values []byte
	for i, ref := range []map[stream.Key]int64{md.refV, md.refW} {
		if x, ok := ref[k]; ok {
			mask |= 1 << i
			values = binary.AppendUvarint(values, 8)
			values = binary.LittleEndian.AppendUint64(values, uint64(x))
		}
	}
	if fields, ok := md.refM[k]; ok {
		mask |= 1 << 2
		inner := stream.NewEncoder(32)
		inner.Uint32(uint32(len(fields)))
		for _, f := range slices.Sorted(maps.Keys(fields)) {
			inner.String32(f)
			inner.Uint32(8)
			inner.Int64(fields[f])
		}
		values = binary.AppendUvarint(values, uint64(inner.Len()))
		values = append(values, inner.Bytes()...)
	}
	return append(binary.AppendUvarint(nil, mask), values...)
}

// refState is what a full capture of the model store must hold.
func (md *runModel) refState() map[stream.Key][]byte {
	out := map[stream.Key][]byte{}
	for _, keys := range []iter.Seq[stream.Key]{maps.Keys(md.refV), maps.Keys(md.refW), maps.Keys(md.refM)} {
		for k := range keys {
			out[k] = md.refRecord(k)
		}
	}
	return out
}

func (md *runModel) expectRun(what string, got Run, want map[stream.Key][]byte) {
	md.t.Helper()
	if got.Len() != len(want) {
		md.t.Fatalf("%s: run holds %d keys, reference %d", what, got.Len(), len(want))
	}
	if !slices.IsSorted(slices.Collect(got.Keys())) {
		md.t.Fatalf("%s: run keys not ascending", what)
	}
	if got.Len() > 0 && !slices.Equal(got.cells, []string{"v", "w", "m"}) {
		md.t.Fatalf("%s: run names cells %q", what, got.cells)
	}
	for k, v := range got.All() {
		if w, ok := want[k]; !ok || !bytes.Equal(v, w) {
			md.t.Fatalf("%s: key %d = %x, reference %x (held %v)", what, k, v, w, ok)
		}
		if g, ok := got.Get(k); !ok || !bytes.Equal(g, v) {
			md.t.Fatalf("%s: Get(%d) disagrees with iteration", what, k)
		}
	}
	// Size is the length encode writes, and so is the Size of the run
	// decoded from those bytes.
	e := stream.NewEncoder(0)
	got.encode(e)
	if got.Size() != e.Len() {
		md.t.Fatalf("%s: Size() = %d, encode wrote %d bytes", what, got.Size(), e.Len())
	}
	dec, err := decodeRun(stream.NewDecoder(e.Bytes()))
	if err != nil || !dec.Equal(got) || dec.Size() != e.Len() {
		md.t.Fatalf("%s: decoded run (err %v) differs or has Size() %d for %d bytes", what, err, dec.Size(), e.Len())
	}
}

func (md *runModel) step(r *rand.Rand) {
	t, key := md.t, md.key
	switch op := r.Intn(14); {
	case op < 2:
		k, v := key(), r.Int63()
		md.v.Set(k, v)
		md.refV[k], md.dirty[k] = v, true
	case op == 2:
		k, v := md.wkey(), r.Int63()
		md.w.Set(k, v)
		md.refW[k], md.dirty[k] = v, true
	case op < 5:
		k, f, v := key(), string(rune('a'+r.Intn(3))), r.Int63()
		md.m.Put(k, f, v)
		if md.refM[k] == nil {
			md.refM[k] = map[string]int64{}
		}
		md.refM[k][f], md.dirty[k] = v, true
	case op < 7:
		k := []func() stream.Key{key, md.wkey}[r.Intn(2)]()
		_, inV := md.refV[k]
		if _, inW := md.refW[k]; inV || inW {
			md.dirty[k] = true
		}
		md.v.Delete(k)
		md.w.Delete(k)
		delete(md.refV, k)
		delete(md.refW, k)
		if r.Intn(2) == 0 {
			if _, ok := md.refM[k]; ok {
				md.dirty[k] = true
			}
			md.m.Delete(k)
			delete(md.refM, k)
		}
	case op == 7: // full checkpoint replaces the backup
		run, err := md.store.TakeCheckpoint()
		if err != nil {
			t.Fatal(err)
		}
		md.refBackup = md.refState()
		md.expectRun("TakeCheckpoint", run, md.refBackup)
		md.backup = &Processing{KV: run, TS: stream.TSVector{int64(md.seq)}}
		md.dirty = map[stream.Key]bool{}
	case op == 8: // delta folds into the backup
		d, err := md.store.TakeDelta(stream.TSVector{int64(md.seq)}, md.seq, md.seq+1)
		if err != nil {
			t.Fatal(err)
		}
		md.seq++
		full, changed := md.refState(), map[stream.Key][]byte{}
		var deleted []stream.Key
		for k := range md.dirty {
			if v, ok := full[k]; ok {
				changed[k] = v
				md.refBackup[k] = v
			} else {
				deleted = append(deleted, k)
				delete(md.refBackup, k)
			}
		}
		slices.Sort(deleted)
		md.expectRun("TakeDelta changed", d.Changed, changed)
		if !slices.Equal(d.Deleted, deleted) {
			t.Fatalf("TakeDelta deleted %v, reference %v", d.Deleted, deleted)
		}
		before := md.backup.KV
		beforeRef := maps.Collect(before.All())
		if err := apply(d, md.backup); err != nil {
			t.Fatal(err)
		}
		md.expectRun("Apply", md.backup.KV, md.refBackup)
		md.expectRun("run before Apply", before, beforeRef) // runs are immutable
		md.dirty = map[stream.Key]bool{}
	case op == 9: // partition at a random cut, edges included, and merge back
		cut := []stream.Key{0, stream.MaxKey, key(), md.wkey(), stream.Key(r.Uint64())}[r.Intn(5)]
		ranges := []KeyRange{{Lo: 0, Hi: cut}}
		if cut < stream.MaxKey {
			ranges = append(ranges, KeyRange{Lo: cut + 1, Hi: stream.MaxKey})
		}
		parts := md.backup.Partition(ranges)
		for i, part := range parts {
			want := map[stream.Key][]byte{}
			for k, v := range md.refBackup {
				if ranges[i].Contains(k) {
					want[k] = v
				}
			}
			md.expectRun("Partition", part.KV, want)
		}
		slices.Reverse(parts) // merge must not depend on argument order
		merged, err := MergeProcessing(parts...)
		if err != nil {
			t.Fatal(err)
		}
		md.expectRun("MergeProcessing", merged.KV, md.refBackup)
		if md.backup.Len() > 0 {
			if _, err := MergeProcessing(append(parts, md.backup.Partition([]KeyRange{{Lo: 0, Hi: md.backup.KV.key(0)}})...)...); err == nil {
				t.Fatal("merge of overlapping parts succeeded")
			}
		}
	case op == 10: // a spill pass moves every key not touched since the last one to disk
		s := md.store
		s.mu.Lock()
		s.spill.Load().passLocked(s, int64(s.residentLenLocked()))
		s.mu.Unlock()
		if err := s.SpillErr(); err != nil {
			t.Fatal(err)
		}
	default: // restore the backup into a fresh store and read it through the cells
		s2 := NewStore()
		v2, w2, m2 := modelCells(s2)
		if err := s2.Restore(md.backup.KV); err != nil {
			t.Fatal(err)
		}
		again, err := s2.TakeCheckpoint()
		if err != nil {
			t.Fatal(err)
		}
		md.expectRun("Restore+TakeCheckpoint", again, md.refBackup)
		if v2.Len()+w2.Len()+m2.Len() < len(md.refBackup) {
			t.Fatalf("restored cells hold %d+%d+%d keys for %d records", v2.Len(), w2.Len(), m2.Len(), len(md.refBackup))
		}
	}
}

// TestRunModel: random sequences of writes, deletes, spill passes, full
// and incremental checkpoints, folds, partitions, merges and restores on
// the sorted run agree with plain-map references at every step. Even
// seeds give the two Value cells one key pool, odd seeds one each.
func TestRunModel(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		// Small key pools so sets, deletes and deltas collide, with the
		// edges of the key space in them.
		pool := func() []stream.Key {
			p := []stream.Key{0, stream.MaxKey}
			for i := 0; i < 30; i++ {
				p = append(p, stream.Key(r.Uint64()))
			}
			return p
		}
		vpool, wpool := pool(), pool()
		if seed%2 == 0 {
			wpool = vpool
		}
		md := newRunModel(t,
			func() stream.Key { return vpool[r.Intn(len(vpool))] },
			func() stream.Key { return wpool[r.Intn(len(wpool))] })
		for i := 0; i < 400; i++ {
			md.step(r)
		}
		if st := md.store.SpillStats(); st.Spills == 0 || st.Loads == 0 {
			t.Fatalf("seed %d: no spilled range was captured: %+v", seed, st)
		}
	}
}

// TestCaptureIsOrderFree: two stores holding the same state, filled in
// different orders and through different deletions — so their maps
// iterate differently — capture byte-identical runs.
func TestCaptureIsOrderFree(t *testing.T) {
	const n = 5000
	r := rand.New(rand.NewSource(3))
	// 2n distinct keys, high bytes often shared: the first n are the
	// state, the rest are written and deleted again.
	seen := map[stream.Key]bool{}
	var keys []stream.Key
	for len(keys) < 2*n {
		if k := stream.Key(r.Uint64() >> uint(r.Intn(64))); !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	fill := func(order []int, churn bool) Run {
		s := NewStore()
		v, w, m := modelCells(s)
		for _, i := range order {
			k := keys[i]
			if churn {
				v.Set(keys[n+i], 0)
				v.Delete(keys[n+i])
			}
			v.Set(k, int64(i))
			if i%3 == 0 {
				w.Set(k, -int64(i))
			}
			if i%5 == 0 {
				m.Put(k, "f", int64(i))
			}
		}
		run, err := s.TakeCheckpoint()
		if err != nil {
			t.Fatal(err)
		}
		return run
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	a := fill(order, false)
	r.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
	if b := fill(order, true); !a.Equal(b) {
		t.Errorf("runs differ: %d and %d keys, %d and %d bytes", a.Len(), b.Len(), len(a.records()), len(b.records()))
	}
	if !slices.IsSorted(slices.Collect(a.Keys())) {
		t.Error("run keys not ascending")
	}
}

// TestRadixSort: the one key sort orders like slices.Sort, and each value
// travels with its key.
func TestRadixSort(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	next := stream.MaxKey
	gens := map[string]func() stream.Key{
		"descending":  func() stream.Key { next -= stream.Key(1 + r.Intn(1<<20)); return next },
		"random":      func() stream.Key { return stream.Key(r.Uint64()) },
		"shared high": func() stream.Key { return 0xabcd<<48 | stream.Key(r.Intn(1<<12)) },
		"edges":       func() stream.Key { return []stream.Key{0, stream.MaxKey, 1, stream.MaxKey - 1}[r.Intn(4)] },
	}
	for name, gen := range gens {
		for _, n := range []int{0, 1, 2, 255, 256, 100_000} {
			es := make([]entry[int], n)
			want := make([]stream.Key, n)
			for i := range es {
				es[i] = entry[int]{i, gen()}
				want[i] = es[i].k
			}
			orig := slices.Clone(want)
			slices.Sort(want)
			got := radixSort(es)
			for i, e := range got {
				if e.k != want[i] || orig[e.v] != e.k {
					t.Fatalf("%s, n=%d: entry %d is (%d, %d), want key %d carrying the value it came with", name, n, i, e.k, e.v, want[i])
				}
			}
			set, tab := map[stream.Key]int{}, keyTable[int]{}
			for i, k := range orig {
				set[k] = i
				p, _ := tab.put(k)
				*p = i
			}
			_, keys := tab.sorted()
			if !slices.Equal(keys, slices.Compact(want)) {
				t.Fatalf("%s, n=%d: a table's sorted keys disagree with slices.Sort", name, n)
			}
			i := 0
			for k, p := range tab.ascending {
				if k != keys[i] || set[k] != *p {
					t.Fatalf("%s, n=%d: ascending entry %d is (%d, %d)", name, n, i, k, *p)
				}
				i++
			}
		}
	}
}

// int64Store returns a store of n int64 cells and one of them to dirty.
func int64Store(n int) (*Store, *Value[int64]) {
	s := NewStore()
	v := NewValue[int64](s, "n", Int64Codec{})
	for i := 0; i < n; i++ {
		v.Set(stream.Key(stream.Mix64(uint64(i))), int64(i))
	}
	return s, v
}

// TestRunAllocations: a checkpoint's trip costs a constant number of
// allocations, not one (or five) per key.
func TestRunAllocations(t *testing.T) {
	const keys = 100_000
	s, v := int64Store(keys)
	cp := &Checkpoint{Instance: plan.InstanceID{Op: "cnt", Part: 1}, Seq: 1, Processing: NewProcessing(1), Buffer: NewBuffer()}
	var blob []byte
	capture := testing.AllocsPerRun(3, func() {
		v.Update(0, func(x int64) int64 { return x + 1 })
		kv, err := s.TakeCheckpoint()
		if err != nil {
			t.Fatal(err)
		}
		cp.Processing.KV = kv
		if blob, err = MarshalCheckpoint(cp, GobPayloadCodec{}); err != nil {
			t.Fatal(err)
		}
	})
	if capture > 16 {
		t.Errorf("capture + marshal of %d keys: %.0f allocations, want ≤ 16", keys, capture)
	}
	if len(blob) != cap(blob) {
		t.Errorf("MarshalCheckpoint blob: len %d, cap %d — not sized exactly", len(blob), cap(blob))
	}
	var got *Checkpoint
	decode := testing.AllocsPerRun(3, func() {
		var err error
		if got, err = DecodeCheckpoint(stream.NewDecoder(blob), GobPayloadCodec{}); err != nil {
			t.Fatal(err)
		}
	})
	if decode > 12 || got.Processing.Len() < keys {
		t.Errorf("decode of %d keys: %.0f allocations for %d keys, want ≤ 12", keys, decode, got.Processing.Len())
	}
	halves := FullRange.SplitEven(2)
	ids := []plan.InstanceID{{Op: "cnt", Part: 2}, {Op: "cnt", Part: 3}}
	partition := func(c *Checkpoint) float64 {
		return testing.AllocsPerRun(3, func() {
			if _, err := PartitionCheckpoint(c, ids, halves); err != nil {
				t.Fatal(err)
			}
		})
	}
	small := *got
	small.Processing = &Processing{KV: got.Processing.KV.Range(KeyRange{Lo: 0, Hi: 1 << 50}), TS: got.Processing.TS}
	if big, few := partition(got), partition(&small); big != few {
		t.Errorf("partition in two: %.0f allocations for %d keys, %.0f for %d — not O(1)", big, got.Processing.Len(), few, small.Processing.Len())
	}
}

// TestRunBytesPerKey: an int64 counter key costs at most 20 bytes on the
// wire and at most 28 retained, whether the run was captured or decoded
// — its cell is named once per run, not in every record, and a run
// indexes its records with one uint32 offset each instead of holding a
// key copy and an int offset beside them.
func TestRunBytesPerKey(t *testing.T) {
	const keys = 100_000
	s, _ := int64Store(keys)
	// A first capture drops the dirty set the fill left behind, so the
	// measured one frees nothing it did not allocate.
	if _, err := s.TakeCheckpoint(); err != nil {
		t.Fatal(err)
	}
	var run Run
	captured := heapKept(func() {
		var err error
		if run, err = s.TakeCheckpoint(); err != nil {
			t.Fatal(err)
		}
	})
	cp := &Checkpoint{Instance: plan.InstanceID{Op: "cnt", Part: 1}, Seq: 1, Processing: &Processing{KV: run, TS: stream.TSVector{1}}, Buffer: NewBuffer()}
	blob, err := MarshalCheckpoint(cp, GobPayloadCodec{})
	if err != nil {
		t.Fatal(err)
	}
	var got *Checkpoint
	decoded := len(blob) + heapKept(func() {
		if got, err = DecodeCheckpoint(stream.NewDecoder(blob), GobPayloadCodec{}); err != nil {
			t.Fatal(err)
		}
	})
	if got.Processing.Len() != keys || !got.Processing.KV.Equal(run) {
		t.Fatalf("decoded %d keys, captured %d", got.Processing.Len(), run.Len())
	}
	runtime.KeepAlive(s) // so the collector frees none of its cells inside the measured capture
	for what, bytes := range map[string]int{"on the wire": len(blob), "retained captured": captured, "retained decoded": decoded} {
		limit := 28
		if what == "on the wire" {
			limit = 20
		}
		per := float64(bytes) / keys
		t.Logf("%s: %.1f bytes per int64 key", what, per)
		if per > float64(limit) {
			t.Errorf("%s: %.1f bytes per int64 key, want ≤ %d", what, per, limit)
		}
	}
}

// heapKept returns the heap bytes f leaves allocated — what is still
// reachable after it, between two collections.
func heapKept(f func()) int {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	f()
	runtime.GC()
	runtime.ReadMemStats(&after)
	return int(after.HeapAlloc) - int(before.HeapAlloc)
}

// TestCaptureOverBodyLimitIsAnError: a capture, merge or fold whose body
// would pass what a run's uint32 offsets index is an error, and a failed
// capture leaves the store's tracking as it was, so the previous backup
// stays authoritative.
func TestCaptureOverBodyLimitIsAnError(t *testing.T) {
	s, v := int64Store(100)
	full, err := s.TakeCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	size := s.LastFullSize()
	v.Set(1, 1)
	defer func(limit int) { maxRunBody = limit }(maxRunBody)
	maxRunBody = len(full.records())
	if _, err := s.TakeCheckpoint(); err == nil {
		t.Fatal("a capture past the body limit succeeded")
	}
	if s.DirtyCount() != 1 || s.LastFullSize() != size {
		t.Errorf("a failed capture moved the tracking: %d dirty, last full %d (was %d)", s.DirtyCount(), s.LastFullSize(), size)
	}
	d, err := s.TakeDelta(stream.TSVector{1}, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := apply(d, &Processing{KV: full}); err == nil {
		t.Error("a fold past the body limit succeeded")
	}
	if _, err := MergeProcessing(&Processing{KV: full}, &Processing{KV: d.Changed}); err == nil {
		t.Error("a merge past the body limit succeeded")
	}
}

// cellStore returns a store with one int64 Value cell per name, each
// holding key k as k*10 for k in keys.
func cellStore(names []string, keys ...stream.Key) (*Store, []*Value[int64]) {
	s := NewStore()
	cells := make([]*Value[int64], len(names))
	for i, name := range names {
		cells[i] = NewValue[int64](s, name, Int64Codec{})
		for _, k := range keys {
			cells[i].Set(k, int64(k)*10)
		}
	}
	return s, cells
}

func capture(t *testing.T, s *Store) Run {
	t.Helper()
	run, err := s.TakeCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	return run
}

// TestCellTableRestoresIntoExtraCell: a run restores into a store that
// holds cells it does not name, in any registration order; those cells
// stay empty, and the store's next capture names all of its own.
func TestCellTableRestoresIntoExtraCell(t *testing.T) {
	src, _ := cellStore([]string{"a", "b"}, 1, 2, 3)
	s := NewStore()
	x := NewValue[string](s, "x", StringCodec{})
	b := NewValue[int64](s, "b", Int64Codec{})
	a := NewValue[int64](s, "a", Int64Codec{})
	if err := s.Restore(capture(t, src)); err != nil {
		t.Fatal(err)
	}
	for _, k := range []stream.Key{1, 2, 3} {
		if va, _ := a.Get(k); va != int64(k)*10 {
			t.Errorf("a[%d] = %d after restore", k, va)
		}
		if vb, _ := b.Get(k); vb != int64(k)*10 {
			t.Errorf("b[%d] = %d after restore", k, vb)
		}
	}
	if x.Len() != 0 {
		t.Errorf("the cell the run does not name holds %d keys", x.Len())
	}
	if again := capture(t, s); !slices.Equal(again.cells, []string{"x", "b", "a"}) || again.Len() != 3 {
		t.Errorf("re-capture names %q over %d keys", again.cells, again.Len())
	}
}

// TestCellTableUnknownCellFails: a run naming a cell the store lacks
// does not restore, and the error names the cell.
func TestCellTableUnknownCellFails(t *testing.T) {
	src, _ := cellStore([]string{"a", "gone"}, 1)
	s, _ := cellStore([]string{"a"})
	err := s.Restore(capture(t, src))
	if err == nil || !strings.Contains(err.Error(), `"gone"`) {
		t.Fatalf("restore into a store without cell gone: %v", err)
	}
}

// TestCellTableMismatchRefused: merge, a partition's merge and a delta's
// fold across runs over different cell tables are errors that leave
// their inputs alone; a run without records merges with any table.
func TestCellTableMismatchRefused(t *testing.T) {
	one, _ := cellStore([]string{"a"}, 1, 2)
	two, cells := cellStore([]string{"a", "b"}, 10, 11)
	runA, runB := capture(t, one), capture(t, two)
	cp := func(part int, run Run) *Checkpoint {
		return &Checkpoint{Instance: plan.InstanceID{Op: "cnt", Part: part}, Seq: 1, Processing: &Processing{KV: run, TS: stream.TSVector{1}}, Buffer: NewBuffer()}
	}
	if _, err := MergeProcessing(&Processing{KV: runA}, &Processing{KV: runB}); err == nil {
		t.Error("MergeProcessing across cell tables succeeded")
	}
	if _, err := MergeCheckpoints(plan.InstanceID{Op: "cnt", Part: 9}, cp(1, runA), cp(2, runB)); err == nil {
		t.Error("MergeCheckpoints across cell tables succeeded")
	}
	ids := []plan.InstanceID{{Op: "cnt", Part: 3}, {Op: "cnt", Part: 4}}
	parts, err := PartitionCheckpoint(cp(2, runB), ids, []KeyRange{{Lo: 0, Hi: 10}, {Lo: 11, Hi: stream.MaxKey}})
	if err != nil {
		t.Fatal(err)
	}
	for _, part := range parts {
		if !slices.Equal(part.Processing.KV.cells, runB.cells) {
			t.Errorf("a part names %q, its checkpoint %q", part.Processing.KV.cells, runB.cells)
		}
	}
	if _, err := MergeCheckpoints(plan.InstanceID{Op: "cnt", Part: 9}, parts[0], cp(1, runA)); err == nil {
		t.Error("merging a partition with a checkpoint over other cells succeeded")
	}
	cells[0].Set(10, 7)
	d, err := two.TakeDelta(stream.TSVector{2}, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	backup := &Processing{KV: runA, TS: stream.TSVector{1}}
	if err := apply(d, backup); err == nil || !backup.KV.Equal(runA) || backup.TS[0] != 1 {
		t.Errorf("a fold across cell tables: err %v, backup moved: %v", err, !backup.KV.Equal(runA))
	}
	merged, err := MergeProcessing(&Processing{KV: runA}, &Processing{KV: Run{}}, &Processing{KV: runA.Range(KeyRange{Lo: 5, Hi: 6})})
	if err != nil || !merged.KV.Equal(runA) {
		t.Errorf("merging with empty runs: %v", err)
	}
}

// TestCellTableGoldenRoundTrips: the two-cell golden decodes, restores
// into a store with its cells, and the store's re-capture encodes to the
// golden byte for byte.
func TestCellTableGoldenRoundTrips(t *testing.T) {
	blob := readGolden(t, "value_map_full")
	cp, err := DecodeCheckpoint(stream.NewDecoder(blob), GobPayloadCodec{})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(cp.Processing.KV.cells, []string{"v", "m"}) {
		t.Fatalf("the golden names %q", cp.Processing.KV.cells)
	}
	s := NewStore()
	v := NewValue[float64](s, "v", Float64Codec{})
	m := NewMap[int64](s, "m", Int64Codec{})
	if err := s.Restore(cp.Processing.KV); err != nil {
		t.Fatal(err)
	}
	if x, _ := v.Get(12); x != 3 {
		t.Errorf("v[12] = %v, want 3", x)
	}
	if x, _ := m.Get(12, "f2"); x != 120 {
		t.Errorf("m[12][f2] = %d, want 120", x)
	}
	cp.Processing.KV = capture(t, s)
	again, err := MarshalCheckpoint(cp, GobPayloadCodec{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, blob) {
		t.Errorf("re-encoded golden: %d bytes differ from its %d", len(again), len(blob))
	}
}

// TestDecodeProcessingRejectsMalformedRuns: a body whose keys do not
// strictly ascend, whose records overrun it or that carries bytes past
// its last record is an error and yields no state.
func TestDecodeProcessingRejectsMalformedRuns(t *testing.T) {
	for name, section := range malformedProcessingSections() {
		if p, err := DecodeProcessing(stream.NewDecoder(section)); err == nil || p != nil {
			t.Errorf("%s: decoded %v, err %v", name, p, err)
		}
		blob := checkpointAround(section)
		if _, err := DecodeCheckpointHeader(blob); err != nil {
			t.Fatalf("%s: the checkpoint around the section does not frame: %v", name, err)
		}
		if cp, err := DecodeCheckpoint(stream.NewDecoder(blob), GobPayloadCodec{}); err == nil || cp != nil {
			t.Errorf("%s: checkpoint decoded %v, err %v", name, cp, err)
		}
	}
}

// checkpointAround frames a processing section as a checkpoint that is
// otherwise valid and empty.
func checkpointAround(section []byte) []byte {
	cp := &Checkpoint{Instance: plan.InstanceID{Op: "cnt", Part: 1}, Seq: 1, Processing: NewProcessing(1)}
	e := stream.NewEncoder(256)
	encodeCheckpointHeader(e, cp)
	mark := e.BeginSection()
	e.Raw(section)
	e.EndSection(mark)
	if err := encodeBufferSections(e, cp, GobPayloadCodec{}); err != nil {
		panic(err)
	}
	return e.Bytes()
}

// malformedProcessingSections returns processing sections that frame
// correctly but break the run's invariants: keys that do not ascend,
// records that overrun the section or their own length, a cell table
// that names a cell twice or none at all, a mask naming no cell or one
// past the table, uvarints spelled longer than they need, and values
// that overrun their record or leave bytes behind them.
func malformedProcessingSections() map[string][]byte {
	section := func(cells []string, n int, records ...[]byte) []byte {
		e := stream.NewEncoder(64)
		e.TSVector(stream.TSVector{7})
		e.Uint32(uint32(len(cells)))
		for _, c := range cells {
			e.String32(c)
		}
		e.Uint32(uint32(n))
		for _, r := range records {
			e.Raw(r)
		}
		return e.Bytes()
	}
	// rec frames body as k's record; value is a one-cell body holding v.
	rec := func(k stream.Key, body []byte) []byte {
		return append(binary.AppendUvarint(binary.LittleEndian.AppendUint64(nil, uint64(k)), uint64(len(body))), body...)
	}
	value := func(v string) []byte { return append([]byte{1, byte(len(v))}, v...) }
	n := []string{"n"}
	long := rec(9, value("fragment"))
	return map[string][]byte{
		"unsorted":                  section(n, 2, rec(5, value("a")), rec(3, value("b"))),
		"duplicate key":             section(n, 2, rec(5, value("a")), rec(5, value("b"))),
		"truncated record":          section(n, 2, rec(1, value("a")), long[:len(long)-3]),
		"short header":              section(n, 2, rec(1, value("a")), long[:7]),
		"count too low":             section(n, 1, rec(1, value("a")), rec(2, value("b"))),
		"count too high":            section(n, 3, rec(1, value("a")), rec(2, value("b"))),
		"overlong record length":    section(n, 1, append(binary.LittleEndian.AppendUint64(nil, 1), 0x83, 0x00, 1, 1, 'a')),
		"overlong mask":             section(n, 1, rec(1, []byte{0x81, 0x00, 1, 'a'})),
		"overlong value length":     section(n, 1, rec(1, []byte{1, 0x81, 0x00, 'a'})),
		"uvarint past 64 bits":      section(n, 1, rec(1, []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f})),
		"mask past the table":       section(n, 1, rec(1, []byte{3, 1, 'a', 1, 'b'})),
		"mask naming no cell":       section(n, 1, rec(1, []byte{0})),
		"value overruns its record": section(n, 1, rec(1, []byte{1, 5, 'a'})),
		"bytes after the value":     section(n, 1, rec(1, append(value("a"), 'x'))),
		"cell named twice":          section([]string{"n", "n"}, 1, rec(1, value("a"))),
		"empty cell name":           section([]string{""}, 1, rec(1, value("a"))),
		"cells past the section":    section([]string{"a", "b", "c"}, 0)[:16],
	}
}
