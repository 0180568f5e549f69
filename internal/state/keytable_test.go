package state

import (
	"maps"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"seep/internal/stream"
)

// keyShapes are the key pools the table tests draw from: hashed keys,
// and the structured shapes a multiplicative hash must still spread —
// consecutive keys, multiples of 2^40, keys that differ only in their
// top 8 bits — plus the two edge keys, 0 (the empty-slot marker) and
// MaxKey, in every pool.
func keyShapes(n int) map[string][]stream.Key {
	pools := map[string][]stream.Key{}
	for i := range n {
		pools["mix64"] = append(pools["mix64"], stream.Key(stream.Mix64(uint64(i))))
		pools["sequential"] = append(pools["sequential"], stream.Key(i))
		pools["multiples of 2^40"] = append(pools["multiples of 2^40"], stream.Key(i)<<40)
		pools["top 8 bits"] = append(pools["top 8 bits"], stream.Key(i%256)<<56|stream.Key(i/256))
	}
	for name := range pools {
		pools[name] = append(pools[name], 0, stream.MaxKey)
	}
	return pools
}

// checkTable compares tab with the reference model: its size, every
// key's value, the walk and the sorted walk, and its load.
func checkTable(t *testing.T, what string, tab *keyTable[int64], ref map[stream.Key]int64) {
	t.Helper()
	if tab.size() != len(ref) {
		t.Fatalf("%s: size %d, model holds %d", what, tab.size(), len(ref))
	}
	for k, want := range ref {
		if p := tab.get(k); p == nil || *p != want {
			t.Fatalf("%s: get(%d) = %v, model holds %d", what, k, p, want)
		}
	}
	walked := map[stream.Key]int64{}
	for k, p := range tab.all {
		if _, dup := walked[k]; dup {
			t.Fatalf("%s: the walk yields key %d twice", what, k)
		}
		walked[k] = *p
	}
	if !maps.Equal(walked, ref) {
		t.Fatalf("%s: the walk yields %d keys that disagree with the model's %d", what, len(walked), len(ref))
	}
	want := slices.Sorted(maps.Keys(ref))
	if _, keys := tab.sorted(); !slices.Equal(keys, want) {
		t.Fatalf("%s: sorted keys disagree with the model", what)
	}
	var walk []stream.Key
	for k, p := range tab.ascending {
		if ref[k] != *p {
			t.Fatalf("%s: ascending yields (%d, %d), model holds %d", what, k, *p, ref[k])
		}
		walk = append(walk, k)
	}
	if !slices.Equal(walk, want) {
		t.Fatalf("%s: the ascending walk disagrees with the model", what)
	}
	if 8*tab.n > 7*len(tab.slots) {
		t.Fatalf("%s: %d keys in %d slots, past 7/8 load", what, tab.n, len(tab.slots))
	}
}

// TestKeyTableModel runs seeded sequences of every table operation —
// insert, update through the returned pointer, get, delete, compact,
// reset, walk — against a Go map, over every key shape, at pool sizes
// that span several growth steps.
func TestKeyTableModel(t *testing.T) {
	for _, n := range []int{5, 300, 20_000} {
		for name, pool := range keyShapes(n) {
			r := rand.New(rand.NewSource(int64(n)))
			var tab keyTable[int64]
			ref := map[stream.Key]int64{}
			ops := 20 * n
			for op := range ops {
				k := pool[r.Intn(len(pool))]
				switch c := r.Intn(100); {
				case c < 40: // insert or overwrite
					p, had := tab.put(k)
					if _, want := ref[k]; had != want {
						t.Fatalf("%s n=%d op %d: put(%d) had=%v, model %v", name, n, op, k, had, want)
					}
					*p = int64(op)
					ref[k] = int64(op)
				case c < 60: // update through the pointer
					p, _ := tab.put(k)
					*p += 3
					ref[k] += 3
				case c < 75:
					p := tab.get(k)
					if want, ok := ref[k]; (p != nil) != ok || ok && *p != want {
						t.Fatalf("%s n=%d op %d: get(%d) = %v, model %d, %v", name, n, op, k, p, want, ok)
					}
				case c < 99:
					_, want := ref[k]
					if got := tab.del(k); got != want {
						t.Fatalf("%s n=%d op %d: del(%d) = %v, model held it: %v", name, n, op, k, got, want)
					}
					delete(ref, k)
				default:
					switch r.Intn(3) {
					case 0:
						tab.compact()
					case 1:
						tab.reserve(r.Intn(n), k, k)
					default:
						tab = keyTable[int64]{}
						clear(ref)
					}
				}
				if tab.size() != len(ref) {
					t.Fatalf("%s n=%d op %d: size %d, model %d", name, n, op, tab.size(), len(ref))
				}
				if op%(ops/8) == 0 {
					checkTable(t, name, &tab, ref)
				}
			}
			checkTable(t, name, &tab, ref)
			// Drain the table key by key: every delete shifts a run back,
			// and what stays must still be found.
			for _, k := range slices.Collect(maps.Keys(ref)) {
				if !tab.del(k) {
					t.Fatalf("%s n=%d: del(%d) of a held key reported absent", name, n, k)
				}
				delete(ref, k)
				if len(ref)%max(1, n/4) == 0 {
					checkTable(t, name, &tab, ref)
				}
			}
			checkTable(t, name, &tab, ref)
		}
	}
}

// TestKeyTableBytesPerKey: an int64 cell holds a key in 18–28 bytes at
// every size — 7/8 load just before a 1.5× growth, 7/12 just after —
// where Go's map measures 23.6. Small cells are measured as many alike,
// so the heap's noise is spread over 200 k keys.
func TestKeyTableBytesPerKey(t *testing.T) {
	for _, n := range []int{1_000, 10_000, 100_000, 150_000, 1_000_000} {
		stores := make([]*Store, max(1, 200_000/n))
		cells := make([]*Value[int64], len(stores))
		runtime.GC() // frees what the sync.Pools still hold as victims
		kept := heapKept(func() {
			for c := range stores {
				stores[c] = NewStore()
				cells[c] = NewValue[int64](stores[c], "n", Int64Codec{})
				for i := range n {
					cells[c].Set(stream.Key(stream.Mix64(uint64(i))), int64(i))
				}
				// A capture drops the dirty set the fill left behind.
				if _, err := stores[c].TakeCheckpoint(); err != nil {
					t.Fatal(err)
				}
			}
		})
		per := float64(kept) / float64(n*len(stores))
		t.Logf("%d keys: %.1f bytes per int64 key, %d slots", n, per, len(cells[0].data.slots))
		if per > 28 {
			t.Errorf("%d keys: %.1f bytes per int64 key, want ≤ 28", n, per)
		}
	}
}

// TestKeyTableGrowthIgnoresTailExtensions: the slots an insert appends
// to a tail its run reached do not move the later growth steps, so every
// table of n hashed keys grows through the same numbers of homes whatever
// its keys. Sized from the extended array, an early extension would
// inflate each later step, a 200 k-key table by 14 %.
func TestKeyTableGrowthIgnoresTailExtensions(t *testing.T) {
	sizes, extended := map[int]int{}, 0
	for c := range 100 {
		var tab keyTable[int64]
		for i := range 20_000 {
			homes, tail := len(tab.slots)-tab.tail, tab.tail
			tab.set(stream.Key(stream.Mix64(uint64(c)<<32|uint64(i))), 1)
			if len(tab.slots)-tab.tail == homes && tab.tail > tail {
				extended++
			}
		}
		sizes[len(tab.slots)-tab.tail]++
	}
	if len(sizes) != 1 || extended == 0 {
		t.Errorf("100 tables of 20 000 keys, %d tail extensions: homes %v, want one size", extended, sizes)
	}
}

// TestKeyTableRebuildIsLinear: compacting a 1 M-key table after half its
// keys are deleted probes no more than 3× what inserting the survivors
// into a fresh table does. A rebuild that inserted in slot order into a
// table still growing would pack every key at the front — homes ascend
// with the hash — and probe quadratically.
func TestKeyTableRebuildIsLinear(t *testing.T) {
	const n = 1_000_000
	var tab keyTable[int64]
	for i := range n {
		p, _ := tab.put(stream.Key(stream.Mix64(uint64(i))))
		*p = int64(i)
	}
	var survivors []stream.Key
	for i := range n {
		k := stream.Key(stream.Mix64(uint64(i)))
		if i%2 == 0 {
			tab.del(k)
		} else {
			survivors = append(survivors, k)
		}
	}
	rebuilt := tab.compact()
	fresh := keyTable[int64]{slots: make([]entry[int64], slotsFor(len(survivors)))}
	inserted := 0
	for _, k := range survivors {
		_, p := fresh.place(k)
		inserted += p
	}
	t.Logf("compaction probed %d slots, fresh inserts %d, for %d keys", rebuilt, inserted, len(survivors))
	if rebuilt > 3*inserted {
		t.Fatalf("compaction probed %d slots, over 3× the %d of fresh inserts", rebuilt, inserted)
	}
	for _, k := range survivors {
		if tab.get(k) == nil {
			t.Fatalf("key %d lost in the compaction", k)
		}
	}
}

// TestKeyTableWalkIsAscending: hashed keys keep the table's slots in key
// order at every growth step, so the walk a capture makes is ascending
// and sorted hands back the slot array itself, copying nothing; such
// keys never trip the fallback to the hashed rank, not even under churn
// at the top of the load.
func TestKeyTableWalkIsAscending(t *testing.T) {
	ascending := func(what string, tab *keyTable[int64]) {
		t.Helper()
		if tab.mul != 0 {
			t.Fatalf("%s: %d hashed keys tripped the fallback", what, tab.n)
		}
		var walk []stream.Key
		for k := range tab.all {
			walk = append(walk, k)
		}
		if !slices.IsSorted(walk) {
			t.Fatalf("%s: the walk of %d keys is not ascending", what, len(walk))
		}
		if es, _ := tab.sorted(); &es[0] != &tab.slots[0] {
			t.Fatalf("%s: sorted copied the slots", what)
		}
	}
	var tab keyTable[int64]
	var held []stream.Key
	add := func(i int) { // Mix64 maps only 0 to key 0, which sits beside the slots
		held = append(held, stream.Key(stream.Mix64(uint64(i+1))))
		tab.set(held[len(held)-1], int64(i))
	}
	const n = 300_000
	for i := range n {
		size := len(tab.slots)
		if add(i); len(tab.slots) != size {
			ascending("growth", &tab)
		}
	}
	// Fill to just under the next growth, then swap keys out and in.
	i := n
	for ; 8*(tab.n+1) <= 7*(len(tab.slots)-tab.tail); i++ {
		add(i)
	}
	size, r := len(tab.slots), rand.New(rand.NewSource(1))
	for end := i + 2*n; i < end; i++ {
		j := r.Intn(len(held))
		tab.del(held[j])
		held[j] = held[len(held)-1]
		held = held[:len(held)-1]
		add(i)
	}
	if len(tab.slots) > size {
		t.Fatalf("churn at a steady size grew the table from %d to %d slots", size, len(tab.slots))
	}
	ascending("churn at 7/8 load", &tab)
}

// TestKeyTableMissStopsAtLargerRank: a lookup of an absent key stops at
// the first slot past its home that is empty or holds a larger key, and
// every slot it passes holds a smaller one; so a miss probes about what
// a hit does, well short of the end of the run an unordered table
// probes to.
func TestKeyTableMissStopsAtLargerRank(t *testing.T) {
	const n = 100_000
	var tab keyTable[int64]
	for i := range n {
		tab.set(stream.Key(stream.Mix64(uint64(2*i))), 1)
	}
	s := tab.slots
	probes, runs := 0, 0
	for i := range n {
		k := stream.Key(stream.Mix64(uint64(2*i + 1)))
		at, found := tab.find(k)
		if found {
			t.Fatalf("absent key %d found at %d", k, at)
		}
		h := tab.home(k)
		for j := h; j < at; j++ {
			if s[j].k == 0 || s[j].k > k {
				t.Fatalf("the miss of %d passed slot %d, which holds %d", k, j, s[j].k)
			}
		}
		if at < len(s) && s[at].k != 0 && s[at].k < k {
			t.Fatalf("the miss of %d stopped at %d, which holds the smaller %d", k, at, s[at].k)
		}
		end := at
		for end < len(s) && s[end].k != 0 {
			end++
		}
		probes, runs = probes+at-h+1, runs+end-h+1
	}
	t.Logf("%d misses at %.2f load: %.2f slots each, to the end of the run %.2f", n, float64(n)/float64(len(s)), float64(probes)/n, float64(runs)/n)
	if 2*probes > runs {
		t.Errorf("misses probed %d slots, over half the %d to the ends of their runs", probes, runs)
	}
}

// TestKeyTableClusteredKeysFallBack: keys that pile onto a few homes
// — every structured shape of keyShapes inserted in order — trip the
// fallback to the hashed rank, and still come out sorted. Their inserts
// stay linear: 1 M sequential keys, each past the range the last rebuild
// spread, fill a table in no more than 8 probes a key, where an insert
// that scanned its pile would probe n/2.
func TestKeyTableClusteredKeysFallBack(t *testing.T) {
	const n = 100_000
	pools := keyShapes(n)
	delete(pools, "mix64")
	for name, pool := range pools {
		var tab keyTable[int64]
		for i, k := range pool {
			tab.set(k, int64(i))
		}
		if tab.mul == 0 {
			t.Errorf("%s: %d keys kept the ordered rank", name, tab.size())
		}
		if _, keys := tab.sorted(); !slices.Equal(keys, slices.Compact(slices.Sorted(slices.Values(pool)))) {
			t.Errorf("%s: sorted disagrees with slices.Sort", name)
		}
	}
	// An insert probes from its key's home to the end of its run, a
	// rebuild (or a tail extension, counted as one) from each key's home
	// to its slot.
	var tab keyTable[int64]
	probes, size, mul := 0, 0, uint64(0)
	for i := range 1_000_000 {
		k := stream.Key(i + 1)
		tab.set(k, 1)
		s := tab.slots
		if len(s) == size && tab.mul == mul {
			e, _ := tab.find(k)
			for e < len(s) && s[e].k != 0 {
				e++
			}
			probes += e - tab.home(k)
			continue
		}
		for j, e := range s {
			if e.k != 0 {
				probes += j - tab.home(e.k) + 1
			}
		}
		size, mul = len(s), tab.mul
	}
	t.Logf("1 M sequential keys: %d probes, %.2f a key", probes, float64(probes)/float64(tab.n))
	if tab.mul == 0 || probes > 8*tab.n {
		t.Errorf("1 M sequential keys probed %d slots, over 8 a key; fell back: %v", probes, tab.mul != 0)
	}
}

// TestKeyTableSplitInstanceKeepsKeyOrder: a split instance holds one
// contiguous part of the key space (KeyRange.SplitEven) — here the upper
// half, the middle third, the first and the last eighth. Its hashed keys
// keep the ordered rank — filled key by key in any order, churned at
// 7/8 load, and installed from a run by Store.Restore — because each
// rebuild spreads the homes over the keys' range; so its capture copies
// and sorts nothing.
func TestKeyTableSplitInstanceKeepsKeyOrder(t *testing.T) {
	const n = 200_000
	for _, part := range [][2]int{{2, 2}, {2, 3}, {1, 8}, {8, 8}} {
		r, keys := FullRange.SplitEven(part[1])[part[0]-1], []stream.Key(nil)
		for i := uint64(0); len(keys) < n; i++ {
			if k := stream.Key(stream.Mix64(i)); r.Contains(k) && k != 0 {
				keys = append(keys, k)
			}
		}
		var tab keyTable[int64]
		for i, k := range keys[:n/2] {
			tab.set(k, int64(i))
		}
		for i := n / 2; i < n; i++ { // swap keys out and in
			tab.del(keys[i-n/2])
			tab.set(keys[i], int64(i))
		}
		s := NewStore()
		v := NewValue[int64](s, "v", Int64Codec{})
		for _, k := range keys {
			v.Set(k, 1)
		}
		run, err := s.TakeCheckpoint()
		if err == nil {
			err = s.Restore(run)
		}
		if err != nil {
			t.Fatal(err)
		}
		for what, tab := range map[string]*keyTable[int64]{"filled": &tab, "restored": &v.data} {
			if tab.mul != 0 {
				t.Errorf("part %d of %d, %s: %d keys fell back to the hashed rank", part[0], part[1], what, tab.n)
			} else if es, _ := tab.sorted(); &es[0] != &tab.slots[0] {
				t.Errorf("part %d of %d, %s: sorted copied the slots", part[0], part[1], what)
			}
		}
	}
}
