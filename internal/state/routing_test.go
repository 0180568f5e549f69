package state

import (
	"slices"
	"testing"
	"testing/quick"

	"seep/internal/plan"
	"seep/internal/stream"
)

func inst(op string, part int) plan.InstanceID {
	return plan.InstanceID{Op: plan.OpID(op), Part: part}
}

func TestSplitEvenTilesKeySpace(t *testing.T) {
	for _, pi := range []int{1, 2, 3, 7, 16, 50} {
		ranges := FullRange.SplitEven(pi)
		if len(ranges) != pi {
			t.Fatalf("pi=%d: %d ranges", pi, len(ranges))
		}
		if ranges[0].Lo != 0 {
			t.Errorf("pi=%d: first range starts at %d", pi, ranges[0].Lo)
		}
		if ranges[pi-1].Hi != stream.MaxKey {
			t.Errorf("pi=%d: last range ends at %d", pi, ranges[pi-1].Hi)
		}
		for i := 1; i < pi; i++ {
			if ranges[i].Lo != ranges[i-1].Hi+1 {
				t.Errorf("pi=%d: gap between range %d and %d", pi, i-1, i)
			}
		}
	}
}

func TestSplitEvenSubRange(t *testing.T) {
	r := KeyRange{Lo: 100, Hi: 199}
	parts := r.SplitEven(4)
	if parts[0].Lo != 100 || parts[3].Hi != 199 {
		t.Errorf("sub-range split endpoints: %v", parts)
	}
	for i := 1; i < 4; i++ {
		if parts[i].Lo != parts[i-1].Hi+1 {
			t.Errorf("sub-range split not contiguous: %v", parts)
		}
	}
}

func TestSplitEvenQuickEveryKeyInExactlyOne(t *testing.T) {
	f := func(k stream.Key, piRaw uint8) bool {
		pi := 1 + int(piRaw%15)
		n := 0
		for _, r := range FullRange.SplitEven(pi) {
			if r.Contains(k) {
				n++
			}
		}
		return n == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSplitByWeight(t *testing.T) {
	// Heavily skewed weights: boundary should land near the hot keys.
	keys := []stream.Key{10, 20, 30, 40, 50, 60}
	weights := []float64{1, 1, 100, 1, 1, 1}
	parts := KeyRange{Lo: 0, Hi: 100}.SplitByWeight(2, keys, weights)
	if len(parts) != 2 {
		t.Fatalf("got %d parts", len(parts))
	}
	if parts[0].Hi < 20 || parts[0].Hi > 30 {
		t.Errorf("weighted boundary at %d, want near hot key 30", parts[0].Hi)
	}
	// Degenerate inputs fall back to even split.
	even := KeyRange{Lo: 0, Hi: 100}.SplitByWeight(2, nil, nil)
	if even[0].Hi != 50 {
		t.Errorf("fallback split boundary at %d, want 50", even[0].Hi)
	}
}

func TestRoutingLookup(t *testing.T) {
	r := NewRouting(inst("count", 1))
	if got := r.Lookup(0); got != inst("count", 1) {
		t.Errorf("Lookup(0) = %v", got)
	}
	if got := r.Lookup(stream.MaxKey); got != inst("count", 1) {
		t.Errorf("Lookup(max) = %v", got)
	}
}

func TestRoutingRepartition(t *testing.T) {
	r := NewRouting(inst("count", 1))
	newInsts := []plan.InstanceID{inst("count", 2), inst("count", 3)}
	ranges := FullRange.SplitEven(2)
	r2, err := r.Repartition("count", newInsts, ranges)
	if err != nil {
		t.Fatal(err)
	}
	if got := r2.Lookup(0); got != inst("count", 2) {
		t.Errorf("low key routed to %v", got)
	}
	if got := r2.Lookup(stream.MaxKey); got != inst("count", 3) {
		t.Errorf("high key routed to %v", got)
	}
	// Original routing is unchanged (Repartition returns a new value).
	if got := r.Lookup(0); got != inst("count", 1) {
		t.Errorf("original routing mutated: %v", got)
	}
}

func TestRoutingRepartitionPreservesOtherOps(t *testing.T) {
	entries := []RouteEntry{
		{Target: inst("a", 1), Range: KeyRange{0, 1<<63 - 1}},
		{Target: inst("b", 1), Range: KeyRange{1 << 63, stream.MaxKey}},
	}
	r, err := NewRoutingFromEntries(entries)
	if err != nil {
		t.Fatal(err)
	}
	// Repartitioning b must keep a's entry intact.
	r2, err := r.Repartition("b", []plan.InstanceID{inst("b", 2), inst("b", 3)},
		KeyRange{1 << 63, stream.MaxKey}.SplitEven(2))
	if err != nil {
		t.Fatal(err)
	}
	if got := r2.Lookup(5); got != inst("a", 1) {
		t.Errorf("a's keys re-routed to %v", got)
	}
	if got := r2.Lookup(stream.MaxKey); got.Op != "b" {
		t.Errorf("b's keys routed to %v", got)
	}
	if len(r2.Targets()) != 3 {
		t.Errorf("targets = %v", r2.Targets())
	}
}

func TestRoutingValidation(t *testing.T) {
	cases := [][]RouteEntry{
		{}, // empty
		{{Target: inst("a", 1), Range: KeyRange{1, stream.MaxKey}}},                                                 // gap at 0
		{{Target: inst("a", 1), Range: KeyRange{0, 10}}},                                                            // not reaching MaxKey
		{{Target: inst("a", 1), Range: KeyRange{0, 10}}, {Target: inst("a", 2), Range: KeyRange{5, stream.MaxKey}}}, // overlap
	}
	for i, entries := range cases {
		if _, err := NewRoutingFromEntries(entries); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestRoutingLookupQuickMatchesLinear(t *testing.T) {
	ranges := FullRange.SplitEven(9)
	entries := make([]RouteEntry, len(ranges))
	for i, r := range ranges {
		entries[i] = RouteEntry{Target: inst("x", i+1), Range: r}
	}
	rt, err := NewRoutingFromEntries(entries)
	if err != nil {
		t.Fatal(err)
	}
	f := func(k stream.Key) bool {
		// Linear scan reference.
		var want plan.InstanceID
		for _, e := range entries {
			if e.Range.Contains(k) {
				want = e.Target
				break
			}
		}
		return rt.Lookup(k) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRoutingRangeOf(t *testing.T) {
	ranges := FullRange.SplitEven(3)
	entries := []RouteEntry{
		{Target: inst("x", 1), Range: ranges[0]},
		{Target: inst("x", 2), Range: ranges[1]},
		{Target: inst("x", 1), Range: ranges[2]}, // x#1 owns two contiguous? no — 0 and 2 are not contiguous
	}
	rt, err := NewRoutingFromEntries(entries)
	if err != nil {
		t.Fatal(err)
	}
	r, ok := rt.RangeOf(inst("x", 2))
	if !ok || r != ranges[1] {
		t.Errorf("RangeOf(x#2) = %v, %v", r, ok)
	}
	if _, ok := rt.RangeOf(inst("x", 9)); ok {
		t.Error("RangeOf unknown instance should report false")
	}
}

func TestRoutingEncodeDecode(t *testing.T) {
	ranges := FullRange.SplitEven(4)
	entries := make([]RouteEntry, len(ranges))
	for i, r := range ranges {
		entries[i] = RouteEntry{Target: inst("op", i+1), Range: r}
	}
	rt, err := NewRoutingFromEntries(entries)
	if err != nil {
		t.Fatal(err)
	}
	e := stream.NewEncoder(0)
	rt.Encode(e)
	got, err := DecodeRouting(stream.NewDecoder(e.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != rt.String() {
		t.Errorf("round trip changed routing:\n got %s\nwant %s", got, rt)
	}
}

func TestRoutingClone(t *testing.T) {
	rt := NewRouting(inst("a", 1))
	cl := rt.Clone()
	cl2, err := cl.Repartition("a", []plan.InstanceID{inst("a", 2), inst("a", 3)}, FullRange.SplitEven(2))
	if err != nil {
		t.Fatal(err)
	}
	_ = cl2
	if rt.Lookup(0) != inst("a", 1) {
		t.Error("clone operations affected original")
	}
}

// FuzzDecodeRouting: a routing read off the network — a reroute's
// routing blob — either fails to decode or is a valid routing that
// round-trips: re-encoded, it decodes to the same entries. Its corpus
// under testdata/fuzz holds a count of 2^32-1 entries in four bytes,
// which once allocated them all before reading one.
func FuzzDecodeRouting(f *testing.F) {
	three, err := NewRoutingFromEntries([]RouteEntry{
		{Target: inst("cnt", 1), Range: FullRange.SplitEven(3)[0]},
		{Target: inst("cnt", 2), Range: FullRange.SplitEven(3)[1]},
		{Target: inst("cnt", 3), Range: FullRange.SplitEven(3)[2]},
	})
	if err != nil {
		f.Fatal(err)
	}
	for _, r := range []*Routing{NewRouting(inst("cnt", 1)), three} {
		e := stream.NewEncoder(64)
		r.Encode(e)
		f.Add(e.Bytes())
		f.Add(e.Bytes()[:len(e.Bytes())/2])
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		r, err := DecodeRouting(stream.NewDecoder(b))
		if err != nil {
			return
		}
		again, err := DecodeRouting(stream.NewDecoder(MarshalRouting(r)))
		if err != nil {
			t.Fatalf("a decoded routing %v fails to decode re-encoded: %v", r, err)
		}
		if !slices.Equal(again.Entries(), r.Entries()) {
			t.Fatalf("routing %v decodes re-encoded as %v", r, again)
		}
	})
}
