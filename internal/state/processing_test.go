package state

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"seep/internal/stream"
)

// runOf builds a run from a plain map, the form the tests' reference
// models and fixtures are written in.
func runOf(kv map[stream.Key][]byte) Run {
	var b RunBuilder
	for _, k := range slices.Sorted(maps.Keys(kv)) {
		b.Append(k, kv[k])
	}
	return b.Run()
}

func mkProcessing(n int, seed int64) *Processing {
	rng := rand.New(rand.NewSource(seed))
	kv := make(map[stream.Key][]byte, n)
	for i := 0; i < n; i++ {
		k := stream.Key(rng.Uint64())
		v := make([]byte, 4+rng.Intn(24))
		rng.Read(v)
		kv[k] = v
	}
	return &Processing{KV: runOf(kv)}
}

// TestProcessingCloneIsolation: the run is immutable and shared, so a
// copy of the processing state is a copy of the struct; what a holder
// can change is which run it holds (a delta fold), which leaves every
// other holder's state as it was.
func TestProcessingCloneIsolation(t *testing.T) {
	p := mkProcessing(10, 1)
	c := &Processing{KV: p.KV}
	if err := apply(&Delta{Deleted: slices.Collect(c.KV.Keys())[:1]}, c); err != nil {
		t.Fatal(err)
	}
	if c.KV.Len() != p.KV.Len()-1 || p.KV.Len() != 10 {
		t.Errorf("folding into the copy: copy %d keys, original %d", c.KV.Len(), p.KV.Len())
	}
	if p.KV.Equal(c.KV) {
		t.Error("mutating the copy should diverge from the original")
	}
}

// TestProcessingSize: the processing section is the run alone, and Size
// is the length encode writes — the run's cell count, entry count and
// records — for states with and without a cell table.
func TestProcessingSize(t *testing.T) {
	named := NewStore()
	NewValue[int64](named, "counts", Int64Codec{}).Set(1, 1)
	captured, err := named.TakeCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		kv   Run
		want int
	}{
		{"empty", Run{}, 4 + 4},
		{"one built record", runOf(map[stream.Key][]byte{1: {1, 2, 3, 4}}), 4 + 4 + 8 + 1 + 4},
		{"one captured record", captured, 4 + 4 + len("counts") + 4 + 8 + 1 + 1 + 1 + 8},
	} {
		e := stream.NewEncoder(0)
		c.kv.encode(e)
		if c.kv.Size() != c.want || e.Len() != c.want {
			t.Errorf("%s: Size() = %d, encode wrote %d, want %d", c.name, c.kv.Size(), e.Len(), c.want)
		}
	}
}

func TestProcessingEncodeDecode(t *testing.T) {
	p := mkProcessing(50, 2)
	e := stream.NewEncoder(0)
	p.KV.encode(e)
	got, err := decodeRun(stream.NewDecoder(e.Bytes()))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !p.KV.Equal(got) {
		t.Error("round trip changed processing state")
	}
}

func TestDecodeProcessingCorrupt(t *testing.T) {
	p := mkProcessing(5, 3)
	e := stream.NewEncoder(0)
	p.KV.encode(e)
	b := e.Bytes()
	if _, err := decodeRun(stream.NewDecoder(b[:len(b)/2])); err == nil {
		t.Error("expected error decoding truncated state")
	}
}

// TestPartitionDisjointUnion is the central invariant of Algorithm 2:
// partitioning processing state over ranges that tile the key interval
// yields disjoint parts whose union is exactly the original state.
func TestPartitionDisjointUnion(t *testing.T) {
	for _, pi := range []int{1, 2, 3, 5, 8} {
		p := mkProcessing(200, int64(pi))
		ranges := FullRange.SplitEven(pi)
		parts := make([]Run, len(ranges))
		total := 0
		for i, r := range ranges {
			parts[i] = p.KV.Range(r)
			total += parts[i].Len()
			for k := range parts[i].All() {
				if !r.Contains(k) {
					t.Errorf("pi=%d part=%d: key %d outside range %v", pi, i, k, r)
				}
			}
		}
		if total != p.KV.Len() {
			t.Errorf("pi=%d: parts hold %d keys, original %d", pi, total, p.KV.Len())
		}
		merged, err := mergeRuns(parts)
		if err != nil {
			t.Fatalf("pi=%d: merge: %v", pi, err)
		}
		if !merged.Equal(p.KV) {
			t.Errorf("pi=%d: merge(partition(p)) != p", pi)
		}
	}
}

func TestPartitionMergeQuick(t *testing.T) {
	f := func(seed int64, piRaw uint8) bool {
		pi := 1 + int(piRaw%7)
		p := mkProcessing(64, seed)
		var parts []Run
		for _, r := range FullRange.SplitEven(pi) {
			parts = append(parts, p.KV.Range(r))
		}
		merged, err := mergeRuns(parts)
		return err == nil && merged.Equal(p.KV)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestMergeProcessingOverlapFails(t *testing.T) {
	a := runOf(map[stream.Key][]byte{7: {1}})
	b := runOf(map[stream.Key][]byte{7: {2}})
	if _, err := mergeRuns([]Run{a, b}); err == nil {
		t.Error("expected overlap error")
	}
}

// TestMergeProcessingNilInputs: a zero run — a stateless victim's — merges
// into nothing.
func TestMergeProcessingNilInputs(t *testing.T) {
	a := runOf(map[stream.Key][]byte{1: {1}})
	got, err := mergeRuns([]Run{a, {}})
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 1 {
		t.Errorf("merge with a zero run lost keys: %d", got.Len())
	}
}

func TestProcessingKeysSorted(t *testing.T) {
	p := mkProcessing(30, 9)
	keys := slices.Collect(p.KV.Keys())
	for i := 1; i < len(keys); i++ {
		if keys[i-1] >= keys[i] {
			t.Fatalf("keys not strictly sorted at %d", i)
		}
	}
	if len(keys) != p.KV.Len() {
		t.Errorf("Keys() returned %d, want %d", len(keys), p.KV.Len())
	}
}

func TestProcessingEqualEdgeCases(t *testing.T) {
	var b RunBuilder
	if !(Run{}).Equal(b.Run()) {
		t.Error("a zero run and an empty built run should be Equal")
	}
	one := runOf(map[stream.Key][]byte{1: {1}})
	if one.Equal(runOf(map[stream.Key][]byte{1: {2}})) {
		t.Error("different values should not be Equal")
	}
	named := one
	named.cells = []string{"n"}
	if one.Equal(named) {
		t.Error("different cell tables should not be Equal")
	}
}

func ExampleRun_Range() {
	var kv RunBuilder
	kv.Append(10, []byte("a"))
	kv.Append(stream.MaxKey-5, []byte("b"))
	run, halves := kv.Run(), FullRange.SplitEven(2)
	fmt.Println(run.Range(halves[0]).Len(), run.Range(halves[1]).Len())
	// Output: 1 1
}
