package state

import (
	"testing"
	"testing/quick"

	"seep/internal/stream"
)

func tuple(ts int64, k stream.Key) stream.Tuple {
	return stream.Tuple{TS: ts, Key: k, Payload: ts}
}

func TestBufferAppendTrim(t *testing.T) {
	b := NewBuffer()
	d1 := inst("count", 1)
	for ts := int64(1); ts <= 10; ts++ {
		b.Append(d1, tuple(ts, stream.Key(ts)))
	}
	if b.Len() != 10 || b.LenFor(d1) != 10 {
		t.Fatalf("Len = %d, LenFor = %d", b.Len(), b.LenFor(d1))
	}
	if n := b.Trim("count", 4); n != 4 {
		t.Errorf("Trim removed %d, want 4", n)
	}
	rest := b.Tuples(d1)
	if len(rest) != 6 || rest[0].TS != 5 {
		t.Errorf("after trim: %v", rest)
	}
	// Trimming below the retained range is a no-op.
	if n := b.Trim("count", 2); n != 0 {
		t.Errorf("second Trim removed %d, want 0", n)
	}
	// Trimming everything.
	if n := b.Trim("count", 100); n != 6 {
		t.Errorf("full Trim removed %d, want 6", n)
	}
}

func TestBufferTrimOnlyNamedOp(t *testing.T) {
	b := NewBuffer()
	b.Append(inst("a", 1), tuple(1, 1))
	b.Append(inst("b", 1), tuple(1, 1))
	b.Trim("a", 10)
	if b.LenFor(inst("b", 1)) != 1 {
		t.Error("trim of a removed b's tuples")
	}
}

func TestBufferTuplesForOpMergesByTS(t *testing.T) {
	b := NewBuffer()
	b.Append(inst("c", 1), tuple(3, 1))
	b.Append(inst("c", 2), tuple(1, 2))
	b.Append(inst("c", 1), tuple(5, 3))
	b.Append(inst("c", 2), tuple(4, 4))
	got := b.TuplesForOp("c")
	if len(got) != 4 {
		t.Fatalf("got %d tuples", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i-1].TS > got[i].TS {
			t.Fatalf("not sorted: %v", got)
		}
	}
}

func TestBufferRepartition(t *testing.T) {
	b := NewBuffer()
	old := inst("c", 1)
	// Keys spanning the space.
	b.Append(old, stream.Tuple{TS: 1, Key: 0})
	b.Append(old, stream.Tuple{TS: 2, Key: stream.MaxKey})
	b.Append(old, stream.Tuple{TS: 3, Key: 1})
	entries := []RouteEntry{}
	for i, r := range FullRange.SplitEven(2) {
		entries = append(entries, RouteEntry{Target: inst("c", i+2), Range: r})
	}
	rt, err := NewRoutingFromEntries(entries)
	if err != nil {
		t.Fatal(err)
	}
	b.Repartition("c", rt)
	if n := b.LenFor(inst("c", 2)); n != 2 {
		t.Errorf("low partition has %d tuples, want 2", n)
	}
	if n := b.LenFor(inst("c", 3)); n != 1 {
		t.Errorf("high partition has %d tuples, want 1", n)
	}
	if b.LenFor(old) != 0 {
		t.Error("old instance still has tuples")
	}
}

// TestBufferRepartitionPreservesTuples: repartitioning never loses or
// duplicates tuples, for any split level.
func TestBufferRepartitionPreservesTuples(t *testing.T) {
	f := func(keys []uint64, piRaw uint8) bool {
		pi := 1 + int(piRaw%7)
		b := NewBuffer()
		for i, k := range keys {
			b.Append(inst("c", 1), stream.Tuple{TS: int64(i + 1), Key: stream.Key(k)})
		}
		entries := []RouteEntry{}
		for i, r := range FullRange.SplitEven(pi) {
			entries = append(entries, RouteEntry{Target: inst("c", i+10), Range: r})
		}
		rt, err := NewRoutingFromEntries(entries)
		if err != nil {
			return false
		}
		b.Repartition("c", rt)
		if b.Len() != len(keys) {
			return false
		}
		// Every tuple must sit at the instance owning its key.
		for _, target := range b.Targets() {
			r, ok := rt.RangeOf(target)
			if !ok {
				return false
			}
			for _, tu := range b.Tuples(target) {
				if !r.Contains(tu.Key) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestBufferClone(t *testing.T) {
	b := NewBuffer()
	b.Append(inst("a", 1), tuple(1, 1))
	c := b.Clone()
	c.Append(inst("a", 1), tuple(2, 2))
	if b.Len() != 1 {
		t.Error("clone shares storage with original")
	}
}

func TestBufferTargetsDeterministic(t *testing.T) {
	b := NewBuffer()
	b.Append(inst("b", 2), tuple(1, 1))
	b.Append(inst("a", 1), tuple(1, 1))
	b.Append(inst("b", 1), tuple(1, 1))
	got := b.Targets()
	want := []string{"a#1", "b#1", "b#2"}
	for i := range got {
		if got[i].String() != want[i] {
			t.Fatalf("Targets() = %v", got)
		}
	}
}

// TestTuplesForOpDeterministicTies: tuples retained for different
// instances of one logical operator that tie on TS are merged in a
// stable order (TS, then key, then Born), so replay order after
// repartitioning never depends on map iteration.
func TestTuplesForOpDeterministicTies(t *testing.T) {
	build := func(order []int) []stream.Tuple {
		b := NewBuffer()
		// Three sibling instances appended in varying order, with TS
		// collisions across instances.
		appends := []struct {
			part int
			t    stream.Tuple
		}{
			{1, stream.Tuple{TS: 5, Key: 9, Born: 1}},
			{2, stream.Tuple{TS: 5, Key: 3, Born: 2}},
			{3, stream.Tuple{TS: 5, Key: 3, Born: 1}},
			{2, stream.Tuple{TS: 7, Key: 1, Born: 3}},
			{1, stream.Tuple{TS: 6, Key: 2, Born: 4}},
		}
		for _, i := range order {
			a := appends[i]
			b.Append(inst("count", a.part), a.t)
		}
		return b.TuplesForOp("count")
	}
	want := build([]int{0, 1, 2, 3, 4})
	for _, order := range [][]int{{4, 3, 2, 1, 0}, {2, 0, 4, 1, 3}} {
		got := build(order)
		if len(got) != len(want) {
			t.Fatalf("len = %d, want %d", len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("order %v diverged at %d: %+v vs %+v", order, i, got[i], want[i])
			}
		}
	}
	// And the order itself is TS-major, key-minor, Born-last.
	got := build([]int{0, 1, 2, 3, 4})
	if !(got[0].TS == 5 && got[0].Key == 3 && got[0].Born == 1) ||
		!(got[1].TS == 5 && got[1].Key == 3 && got[1].Born == 2) ||
		!(got[2].TS == 5 && got[2].Key == 9) ||
		got[3].TS != 6 || got[4].TS != 7 {
		t.Fatalf("merged order = %+v", got)
	}
}

// TestBufferCapacityGivenBack: a backing array that a burst grew returns
// to the allocator once the burst is trimmed — through the same
// targetBuf, so handles keep working — and neither a clone nor a reset
// of the once-huge buffer inherits the capacity.
func TestBufferCapacityGivenBack(t *testing.T) {
	const burst, live = 1_000_000, 1_000
	b := NewBuffer()
	d1 := inst("count", 1)
	h := b.Handle(d1)
	for ts := int64(1); ts <= burst; ts++ {
		h.Append(stream.Tuple{TS: ts, Key: stream.Key(ts)})
	}
	tb := b.perTarget[d1]
	if cap(tb.buf) < burst {
		t.Fatalf("burst of %d grew the array to %d slots only", burst, cap(tb.buf))
	}
	if n := b.TrimInstance(d1, burst-live); n != burst-live {
		t.Fatalf("trimmed %d, want %d", n, burst-live)
	}
	if c := cap(tb.buf); c > 4*live+2*bufSlack {
		t.Errorf("after trimming to %d live tuples the array still has %d slots", live, c)
	}
	h.Append(stream.Tuple{TS: burst + 1, Key: 1})
	if h.tb != b.perTarget[d1] || b.LenFor(d1) != live+1 {
		t.Errorf("handle detached by compaction: %d live tuples, want %d", b.LenFor(d1), live+1)
	}
	if got := b.Tuples(d1); got[0].TS != burst-live+1 || got[live].TS != burst+1 {
		t.Errorf("live window after compaction is [%d..%d]", got[0].TS, got[live].TS)
	}
	if c := cap(b.Clone().perTarget[d1].buf); c > live+1 {
		t.Errorf("clone of %d tuples has %d slots", live+1, c)
	}

	// The same burst without a trim: DropOp resets the storage in place.
	for ts := int64(burst + 2); ts <= 2*burst; ts++ {
		h.Append(stream.Tuple{TS: ts, Key: stream.Key(ts)})
	}
	b.DropOp("count")
	if c := cap(tb.buf); c != 0 || h.tb != tb {
		t.Errorf("reset kept %d slots (same storage: %v)", c, h.tb == tb)
	}
}

// TestBufferCapacitySteadyCycle pins the amortised cost: append/trim
// cycles of a steady shape reallocate nothing once the array fits a
// cycle — giving capacity back must not turn every checkpoint interval
// into a regrowth — and a cycle that follows a burst reallocates at most
// once, to shrink.
func TestBufferCapacitySteadyCycle(t *testing.T) {
	const perCycle = 25_000 // steady-live: 50k tuples/s, 500 ms checkpoints
	// residue: tuples emitted after the checkpoint, which its trim leaves.
	for _, residue := range []int64{0, 400} {
		b := NewBuffer()
		d1 := inst("count", 1)
		h := b.Handle(d1)
		tb := b.perTarget[d1]
		ts := int64(0)
		cycle := func(n int) (reallocs int) {
			for i := 0; i < n; i++ {
				before := cap(tb.buf)
				ts++
				h.Append(stream.Tuple{TS: ts, Key: stream.Key(ts)})
				if cap(tb.buf) != before {
					reallocs++
				}
			}
			before := cap(tb.buf)
			b.TrimInstance(d1, ts-residue)
			if cap(tb.buf) != before {
				reallocs++
			}
			return reallocs
		}
		cycle(perCycle) // growth from empty
		cycle(perCycle)
		for i := 0; i < 10; i++ {
			if n := cycle(perCycle); n != 0 {
				t.Fatalf("residue %d: steady cycle %d reallocated %d times", residue, i, n)
			}
		}
		cycle(40 * perCycle) // a burst
		if n := cycle(perCycle); n > 1 {
			t.Fatalf("residue %d: the cycle after a burst reallocated %d times", residue, n)
		}
		if c := cap(tb.buf); c > 4*perCycle {
			t.Errorf("residue %d: a cycle after the burst the array still has %d slots", residue, c)
		}
		for i := 0; i < 10; i++ {
			if n := cycle(perCycle); n != 0 {
				t.Fatalf("residue %d: steady cycle %d after the burst reallocated %d times", residue, i, n)
			}
		}
	}
}
