package state

import (
	"reflect"
	"testing"

	"seep/internal/plan"
	"seep/internal/stream"
)

// stamps renders tuples as their timestamps.
func stamps(ts []stream.Tuple) []int64 {
	out := []int64{}
	for _, t := range ts {
		out = append(out, t.TS)
	}
	return out
}

// run is a batch from sender from on input stream input carrying tuples
// stamped ts.
func run(from plan.InstanceID, input int, ts ...int64) Batch {
	b := Batch{From: from, Input: input}
	for _, s := range ts {
		b.Tuples = append(b.Tuples, tuple(s, stream.Key(s)))
	}
	return b
}

// TestAdmit: the receive rule keeps exactly the tuples newer than both
// the sender's ack and the tuple kept before them, and advances the ack
// to the newest kept tuple — or changes nothing.
func TestAdmit(t *testing.T) {
	a, b := inst("map", 1), inst("map", 2)
	for _, tc := range []struct {
		name     string
		acks     map[plan.InstanceID]int64
		batches  []Batch
		kept     [][]int64
		wantAcks map[plan.InstanceID]int64
	}{{
		name:     "fresh run",
		batches:  []Batch{run(a, 0, 1, 2, 3)},
		kept:     [][]int64{{1, 2, 3}},
		wantAcks: map[plan.InstanceID]int64{a: 3},
	}, {
		name:     "duplicates across batches",
		batches:  []Batch{run(a, 0, 1, 2, 3), run(a, 0, 2, 3, 4, 5)},
		kept:     [][]int64{{1, 2, 3}, {4, 5}},
		wantAcks: map[plan.InstanceID]int64{a: 5},
	}, {
		name:     "duplicates inside a batch",
		batches:  []Batch{run(a, 0, 1, 1, 2, 2, 3)},
		kept:     [][]int64{{1, 2, 3}},
		wantAcks: map[plan.InstanceID]int64{a: 3},
	}, {
		name:     "non-monotone run inside a batch",
		batches:  []Batch{run(a, 0, 5, 3, 6, 4, 7)},
		kept:     [][]int64{{5, 6, 7}},
		wantAcks: map[plan.InstanceID]int64{a: 7},
	}, {
		name:     "acks are per sender",
		batches:  []Batch{run(a, 0, 8), run(b, 0, 3), run(b, 1, 4)},
		kept:     [][]int64{{8}, {3}, {4}},
		wantAcks: map[plan.InstanceID]int64{a: 8, b: 4},
	}, {
		name:     "all duplicates leave acks untouched",
		acks:     map[plan.InstanceID]int64{a: 9},
		batches:  []Batch{run(a, 0, 3, 9)},
		kept:     [][]int64{{}},
		wantAcks: map[plan.InstanceID]int64{a: 9},
	}} {
		t.Run(tc.name, func(t *testing.T) {
			in := NewInstance(nil)
			for k, v := range tc.acks {
				in.Acks[k] = v
			}
			for i, batch := range tc.batches {
				if got := stamps(in.Admit(batch)); !reflect.DeepEqual(got, tc.kept[i]) {
					t.Errorf("batch %d kept %v, want %v", i, got, tc.kept[i])
				}
			}
			if !reflect.DeepEqual(in.Acks, tc.wantAcks) {
				t.Errorf("acks %v, want %v", in.Acks, tc.wantAcks)
			}
		})
	}
}

// emitQuery is src → map → {count, sink}: the emitting map instance has
// one partitioned stateful hop and one hop toward a sink.
func emitQuery() *plan.Query {
	q := plan.NewQuery()
	q.AddOp(plan.OpSpec{ID: "src", Role: plan.RoleSource})
	q.AddOp(plan.OpSpec{ID: "map", Role: plan.RoleStateless})
	q.AddOp(plan.OpSpec{ID: "count", Role: plan.RoleStateful})
	q.AddOp(plan.OpSpec{ID: "sink", Role: plan.RoleSink})
	q.Connect("src", "map")
	q.Connect("map", "count")
	q.Connect("map", "sink")
	return q
}

// emitHops resolves the map instance's hops: count split at key 100 over
// two partitions, sink unpartitioned.
func emitHops(t *testing.T, in *Instance, retain bool) []Hop {
	t.Helper()
	count, err := NewRoutingFromEntries([]RouteEntry{
		{Target: inst("count", 1), Range: KeyRange{Lo: 0, Hi: 100}},
		{Target: inst("count", 2), Range: KeyRange{Lo: 101, Hi: stream.MaxKey}},
	})
	if err != nil {
		t.Fatal(err)
	}
	routing := func(op plan.OpID) *Routing {
		if op == "count" {
			return count
		}
		return NewRouting(inst("sink", 1))
	}
	return in.Hops(emitQuery(), "map", retain, routing)
}

func staged(keys ...stream.Key) []Staged {
	out := make([]Staged, len(keys))
	for i, k := range keys {
		out[i] = Staged{Key: k, Payload: int64(k), Born: 7}
	}
	return out
}

// TestEmit: one clock run stamps each item once for every hop; a
// partitioned hop yields one batch per target in the order targets first
// occur, each naming its hop and routing entry; tuples are retained
// exactly where the hop retains, never toward a sink.
func TestEmit(t *testing.T) {
	type out struct {
		hop, entry int
		to         plan.InstanceID
		ts         []int64
	}
	c1, c2, sink := inst("count", 1), inst("count", 2), inst("sink", 1)
	for _, tc := range []struct {
		name     string
		retain   bool
		keys     []stream.Key
		want     []out
		retained map[plan.InstanceID][]int64
	}{{
		name:   "partitioned and sink hops, retained",
		retain: true,
		keys:   []stream.Key{5, 200, 7, 300, 150},
		want: []out{
			{0, 0, c1, []int64{11, 13}},
			{0, 1, c2, []int64{12, 14, 15}},
			{1, 0, sink, []int64{11, 12, 13, 14, 15}},
		},
		retained: map[plan.InstanceID][]int64{c1: {11, 13}, c2: {12, 14, 15}, sink: {}},
	}, {
		name:   "second target first",
		retain: true,
		keys:   []stream.Key{101, 100},
		want: []out{
			{0, 1, c2, []int64{11}},
			{0, 0, c1, []int64{12}},
			{1, 0, sink, []int64{11, 12}},
		},
		retained: map[plan.InstanceID][]int64{c1: {12}, c2: {11}, sink: {}},
	}, {
		name: "not retained",
		keys: []stream.Key{1, 2},
		want: []out{
			{0, 0, c1, []int64{11, 12}},
			{1, 0, sink, []int64{11, 12}},
		},
		retained: map[plan.InstanceID][]int64{c1: {}, c2: {}, sink: {}},
	}} {
		t.Run(tc.name, func(t *testing.T) {
			in := NewInstance(nil)
			in.OutClock.Reset(10)
			from := inst("map", 3)
			var got []out
			for _, o := range in.Emit(nil, from, staged(tc.keys...), emitHops(t, &in, tc.retain)) {
				if o.From != from || o.Input != 0 {
					t.Errorf("batch to %v from %v input %d, want %v input 0", o.To, o.From, o.Input, from)
				}
				got = append(got, out{o.Hop, o.Entry, o.To, stamps(o.Tuples)})
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("batches\n got %v\nwant %v", got, tc.want)
			}
			if last := in.OutClock.Last(); last != 10+int64(len(tc.keys)) {
				t.Errorf("clock at %d after %d items from 10", last, len(tc.keys))
			}
			for target, want := range tc.retained {
				if got := stamps(in.Buffer.Tuples(target)); !reflect.DeepEqual(got, want) {
					t.Errorf("retained for %v: %v, want %v", target, got, want)
				}
			}
		})
	}
}

// TestEmitAllocations: emitting a 256-item run into a reused dst, with
// the tuple pool warm and the retained output trimmed each round,
// allocates nothing — no per-call scratch, no per-target slice growth.
func TestEmitAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop entries at random")
	}
	const rounds = 50
	in := NewInstance(nil)
	hops := emitHops(t, &in, true)
	items := make([]Staged, 256)
	for i := range items {
		items[i] = Staged{Key: stream.Key(i), Born: 1}
	}
	// Each round builds three batches (two count targets, the sink) and
	// keeps them: the warm-up round and the measured ones each draw fresh
	// slices from the pool.
	for range 3 * (rounds + 1) {
		Batch{Tuples: make([]stream.Tuple, 0, len(items))}.Recycle()
	}
	var dst []Out
	allocs := testing.AllocsPerRun(rounds, func() {
		dst = in.Emit(dst[:0], inst("map", 1), items, hops)
		in.Buffer.Trim("count", in.OutClock.Last())
	})
	if allocs != 0 {
		t.Errorf("a 256-item Emit allocates %.0f times, want 0", allocs)
	}
}

// TestInherit: the replacement takes over its victim's ack; an instance
// that never heard from the victim is left alone.
func TestInherit(t *testing.T) {
	old, repl, other := inst("count", 1), inst("count", 3), inst("count", 2)
	for _, tc := range []struct {
		name       string
		acks, want map[plan.InstanceID]int64
	}{
		{"renamed", map[plan.InstanceID]int64{old: 40, other: 7}, map[plan.InstanceID]int64{repl: 40, other: 7}},
		{"victim unknown", map[plan.InstanceID]int64{other: 7}, map[plan.InstanceID]int64{other: 7}},
	} {
		in := NewInstance(nil)
		in.Acks = tc.acks
		in.Inherit(old, repl)
		if !reflect.DeepEqual(in.Acks, tc.want) {
			t.Errorf("%s: acks %v, want %v", tc.name, in.Acks, tc.want)
		}
	}
}

// TestReroute: an upstream node's own buffer and the legacy buffer of a
// retired sibling are both repartitioned for the rerouted operator; the
// replay carries what the new instances now own, each tuple under the
// sender that stamped it, and leaves the surviving sibling's share and
// other operators' tuples where they were.
func TestReroute(t *testing.T) {
	self, retired := inst("map", 1), inst("map", 2)
	victim, sibling, n1, n2 := inst("count", 1), inst("count", 2), inst("count", 3), inst("count", 4)
	audit := inst("audit", 1)
	in := NewInstance(nil)
	in.Buffer.Append(victim, tuple(1, 10))
	in.Buffer.Append(victim, tuple(2, 60))
	in.Buffer.Append(sibling, tuple(3, 150))
	in.Buffer.Append(audit, tuple(4, 10))
	lb := NewBuffer()
	lb.Append(victim, tuple(5, 40))
	in.Legacy = map[plan.InstanceID]*Buffer{retired: lb}
	// The victim owned [0,100]; it splits at 49.
	routing, err := NewRoutingFromEntries([]RouteEntry{
		{Target: n1, Range: KeyRange{Lo: 0, Hi: 49}},
		{Target: n2, Range: KeyRange{Lo: 50, Hi: 100}},
		{Target: sibling, Range: KeyRange{Lo: 101, Hi: stream.MaxKey}},
	})
	if err != nil {
		t.Fatal(err)
	}
	var got []Replay
	for r := range in.Reroute(self, "count", routing, []plan.InstanceID{n1, n2}) {
		got = append(got, r)
	}
	want := []Replay{
		{From: self, To: n1, T: tuple(1, 10)},
		{From: self, To: n2, T: tuple(2, 60)},
		{From: retired, To: n1, T: tuple(5, 40)},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("replay\n got %v\nwant %v", got, want)
	}
	if in.Buffer.LenFor(victim) != 0 || in.Buffer.LenFor(sibling) != 1 || in.Buffer.LenFor(audit) != 1 ||
		lb.LenFor(victim) != 0 || lb.LenFor(n1) != 1 {
		t.Errorf("buffers after reroute: own %v, legacy %v", in.Buffer.Targets(), lb.Targets())
	}
}
