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
	return &Processing{KV: runOf(kv), TS: stream.TSVector{int64(n), int64(2 * n)}}
}

func TestProcessingCloneIsolation(t *testing.T) {
	p := mkProcessing(10, 1)
	c := p.Clone()
	if !p.Equal(c) {
		t.Fatal("clone differs from original")
	}
	// The run is immutable and shared; what a holder can change is which
	// run it holds (a delta fold) and its timestamp vector.
	if err := apply(&Delta{Deleted: slices.Collect(c.KV.Keys())[:1], TS: c.TS}, c); err != nil {
		t.Fatal(err)
	}
	if c.Len() != p.Len()-1 || p.Len() != 10 {
		t.Errorf("folding into the clone: clone %d keys, original %d", c.Len(), p.Len())
	}
	c.TS[0] = 999
	if p.TS[0] == 999 {
		t.Error("clone shares TS vector")
	}
	if p.Equal(c) {
		t.Error("mutating clone should diverge from original")
	}
}

// TestProcessingSize: Size is the length Encode writes — the timestamp
// vector's length and entries, then the run's cell count, entry count
// and records — for states with and without a cell table.
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
		{"empty", Run{}, 4 + 8 + 4 + 4},
		{"one built record", runOf(map[stream.Key][]byte{1: {1, 2, 3, 4}}), 4 + 8 + 4 + 4 + 8 + 1 + 4},
		{"one captured record", captured, 4 + 8 + 4 + 4 + len("counts") + 4 + 8 + 1 + 1 + 1 + 8},
	} {
		p := &Processing{KV: c.kv, TS: stream.NewTSVector(1)}
		e := stream.NewEncoder(0)
		p.Encode(e)
		if p.Size() != c.want || e.Len() != c.want {
			t.Errorf("%s: Size() = %d, Encode wrote %d, want %d", c.name, p.Size(), e.Len(), c.want)
		}
	}
	var nilP *Processing
	if nilP.Size() != 0 || nilP.Len() != 0 {
		t.Error("nil state should have zero size and length")
	}
}

func TestProcessingEncodeDecode(t *testing.T) {
	p := mkProcessing(50, 2)
	e := stream.NewEncoder(0)
	p.Encode(e)
	got, err := DecodeProcessing(stream.NewDecoder(e.Bytes()))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !p.Equal(got) {
		t.Error("round trip changed processing state")
	}
}

func TestDecodeProcessingCorrupt(t *testing.T) {
	p := mkProcessing(5, 3)
	e := stream.NewEncoder(0)
	p.Encode(e)
	b := e.Bytes()
	if _, err := DecodeProcessing(stream.NewDecoder(b[:len(b)/2])); err == nil {
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
		parts := p.Partition(ranges)
		if len(parts) != pi {
			t.Fatalf("pi=%d: got %d parts", pi, len(parts))
		}
		total := 0
		for i, part := range parts {
			total += part.Len()
			if !part.TS.Equal(p.TS) {
				t.Errorf("pi=%d part=%d: TS = %v, want %v", pi, i, part.TS, p.TS)
			}
			for k := range part.KV.All() {
				if !ranges[i].Contains(k) {
					t.Errorf("pi=%d part=%d: key %d outside range %v", pi, i, k, ranges[i])
				}
			}
		}
		if total != p.Len() {
			t.Errorf("pi=%d: parts hold %d keys, original %d", pi, total, p.Len())
		}
		merged, err := MergeProcessing(parts...)
		if err != nil {
			t.Fatalf("pi=%d: merge: %v", pi, err)
		}
		if !merged.Equal(p) {
			t.Errorf("pi=%d: merge(partition(p)) != p", pi)
		}
	}
}

func TestPartitionMergeQuick(t *testing.T) {
	f := func(seed int64, piRaw uint8) bool {
		pi := 1 + int(piRaw%7)
		p := mkProcessing(64, seed)
		parts := p.Partition(FullRange.SplitEven(pi))
		merged, err := MergeProcessing(parts...)
		if err != nil {
			return false
		}
		return merged.Equal(p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestMergeProcessingOverlapFails(t *testing.T) {
	a := NewProcessing(1)
	a.KV = runOf(map[stream.Key][]byte{7: {1}})
	b := NewProcessing(1)
	b.KV = runOf(map[stream.Key][]byte{7: {2}})
	if _, err := MergeProcessing(a, b); err == nil {
		t.Error("expected overlap error")
	}
}

func TestMergeProcessingNilInputs(t *testing.T) {
	a := NewProcessing(1)
	a.KV = runOf(map[stream.Key][]byte{1: {1}})
	got, err := MergeProcessing(a, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 1 {
		t.Errorf("merge with nil input lost keys: %d", got.Len())
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
	if len(keys) != p.Len() {
		t.Errorf("Keys() returned %d, want %d", len(keys), p.Len())
	}
}

func TestProcessingEqualEdgeCases(t *testing.T) {
	var nilP *Processing
	empty := NewProcessing(0)
	if !nilP.Equal(empty) {
		t.Error("nil and empty processing state should be Equal")
	}
	a := NewProcessing(1)
	a.KV = runOf(map[stream.Key][]byte{1: {1}})
	b := NewProcessing(1)
	b.KV = runOf(map[stream.Key][]byte{1: {2}})
	if a.Equal(b) {
		t.Error("different values should not be Equal")
	}
	c := NewProcessing(2)
	c.KV = a.KV
	if a.Equal(c) {
		t.Error("different TS lengths should not be Equal")
	}
}

func ExampleProcessing_Partition() {
	p := NewProcessing(1)
	var kv RunBuilder
	kv.Append(10, []byte("a"))
	kv.Append(stream.MaxKey-5, []byte("b"))
	p.KV = kv.Run()
	parts := p.Partition(FullRange.SplitEven(2))
	fmt.Println(parts[0].Len(), parts[1].Len())
	// Output: 1 1
}
