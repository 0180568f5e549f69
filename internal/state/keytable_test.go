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
	es, keys := tab.sorted()
	if want := slices.Sorted(maps.Keys(ref)); !slices.Equal(keys, want) {
		t.Fatalf("%s: sorted keys disagree with the model", what)
	}
	for _, e := range es {
		if ref[e.k] != e.v {
			t.Fatalf("%s: sorted entry (%d, %d), model holds %d", what, e.k, e.v, ref[e.k])
		}
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
						tab.reserve(r.Intn(n))
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
