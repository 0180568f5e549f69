package state

import (
	"runtime"
	"testing"
	"testing/quick"
	"unsafe"

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

// slots returns the tuple slots a target holds, live or not, its spare
// chunk included.
func slots(tb *targetBuf) int {
	n := cap(tb.spare)
	for _, c := range tb.chunks {
		n += cap(c)
	}
	return n
}

// maxSlack is what a target may hold beyond its live window: the
// trimmed prefix of its head chunk and the free tail of its last, each
// under a chunk, and one spare chunk.
const maxSlack = 3 * chunkTuples

// TestBufferCapacityGivenBack: a burst's memory goes back with the
// chunks its trim drops — through the same targetBuf, so handles keep
// working — and neither a clone nor a reset of the once-huge buffer
// keeps more than its live tuples (maxSlack bounds the rest).
func TestBufferCapacityGivenBack(t *testing.T) {
	const burst, live = 1_000_000, 1_000
	b := NewBuffer()
	d1 := inst("count", 1)
	h := b.Handle(d1)
	for ts := int64(1); ts <= burst; ts++ {
		h.Append(stream.Tuple{TS: ts, Key: stream.Key(ts)})
	}
	tb := b.perTarget[d1]
	if s := slots(tb); s < burst || s > burst+chunkTuples {
		t.Fatalf("a burst of %d holds %d slots", burst, s)
	}
	if n := b.TrimInstance(d1, burst-live); n != burst-live {
		t.Fatalf("trimmed %d, want %d", n, burst-live)
	}
	if s := slots(tb); s >= live+maxSlack {
		t.Errorf("after trimming to %d live tuples the target still has %d slots", live, s)
	}
	h.Append(stream.Tuple{TS: burst + 1, Key: 1})
	if h.tb != b.perTarget[d1] || b.LenFor(d1) != live+1 {
		t.Errorf("handle detached by the trim: %d live tuples, want %d", b.LenFor(d1), live+1)
	}
	if got := b.Tuples(d1); got[0].TS != burst-live+1 || got[live].TS != burst+1 {
		t.Errorf("live window after the trim is [%d..%d]", got[0].TS, got[live].TS)
	}
	if s := slots(b.Clone().perTarget[d1]); s != live+1 {
		t.Errorf("clone of %d tuples has %d slots", live+1, s)
	}

	// The same burst without a trim: DropOp resets the storage in place.
	for ts := int64(burst + 2); ts <= 2*burst; ts++ {
		h.Append(stream.Tuple{TS: ts, Key: stream.Key(ts)})
	}
	b.DropOp("count")
	if s := slots(tb); s != 0 || h.tb != tb {
		t.Errorf("reset kept %d slots (same storage: %v)", s, h.tb == tb)
	}
}

// TestBufferCapacityRetainedBytes measures what the heap keeps of a
// burst that two checkpoints trim — the first to half of it, the second
// to a small window: the window's tuples plus maxSlack, however large
// the burst and whatever the previous trim took.
func TestBufferCapacityRetainedBytes(t *testing.T) {
	const burst, live = 1_000_000, 1_000
	const tupleBytes = int(unsafe.Sizeof(stream.Tuple{}))
	heap := func() int {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return int(m.HeapAlloc)
	}
	d1 := inst("count", 1)
	before := heap()
	b := NewBuffer()
	h := b.Handle(d1)
	for ts := int64(1); ts <= burst; ts++ {
		h.Append(stream.Tuple{TS: ts, Key: stream.Key(ts)})
	}
	b.TrimInstance(d1, burst/2)
	b.TrimInstance(d1, burst-live)
	held := heap() - before
	if limit := (live+maxSlack)*tupleBytes + 64<<10; held > limit {
		t.Errorf("%d live tuples keep %d KiB of heap, want ≤ %d KiB", b.LenFor(d1), held>>10, limit>>10)
	}
	runtime.KeepAlive(b)
}

// TestBufferCapacitySteadyCycle pins the cost of a steady append/trim
// cycle: no tuple is copied — each stays in the slot it was appended to
// until a trim takes it — and a cycle allocates at most one chunk per
// chunk's worth of tuples plus one, before and after a burst.
func TestBufferCapacitySteadyCycle(t *testing.T) {
	const perCycle = 25_000 // steady-live: 50k tuples/s, 500 ms checkpoints
	const maxChunks = (perCycle+chunkTuples-1)/chunkTuples + 1
	// residue: tuples emitted after the checkpoint, which its trim leaves.
	for _, residue := range []int64{0, 400} {
		b := NewBuffer()
		d1 := inst("count", 1)
		h := b.Handle(d1)
		tb := b.perTarget[d1]
		ts := int64(0)
		cycle := func(n int) {
			for range n {
				ts++
				h.Append(stream.Tuple{TS: ts, Key: stream.Key(ts)})
			}
			b.TrimInstance(d1, ts-residue)
		}
		unmoved := func() {
			at := make(map[int64]*stream.Tuple, perCycle)
			for range perCycle {
				ts++
				h.Append(stream.Tuple{TS: ts, Key: stream.Key(ts)})
				last := tb.chunks[len(tb.chunks)-1]
				at[ts] = &last[len(last)-1]
			}
			for seg := range tb.segments() {
				for i := range seg {
					if p, ok := at[seg[i].TS]; ok && p != &seg[i] {
						t.Fatalf("residue %d: tuple %d moved after its append", residue, seg[i].TS)
					}
				}
			}
			b.TrimInstance(d1, ts-residue)
		}
		steady := func(when string) {
			unmoved()
			if raceEnabled {
				return
			}
			if a := testing.AllocsPerRun(10, func() { cycle(perCycle) }); a > maxChunks {
				t.Errorf("residue %d: a steady cycle %s allocates %.0f times, want ≤ %d", residue, when, a, maxChunks)
			}
		}
		cycle(perCycle) // growth from empty
		steady("from empty")
		cycle(40 * perCycle) // a burst
		if s, live := slots(tb), b.LenFor(d1); s >= live+maxSlack {
			t.Errorf("residue %d: after the burst's trim %d live tuples hold %d slots", residue, live, s)
		}
		steady("after a burst")
	}
}
