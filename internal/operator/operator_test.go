package operator

import (
	"reflect"
	"testing"

	"seep/internal/stream"
)

// collect gathers emissions for assertions.
type collected struct {
	keys     []stream.Key
	payloads []any
}

func (c *collected) emitter() Emitter {
	return func(k stream.Key, p any) {
		c.keys = append(c.keys, k)
		c.payloads = append(c.payloads, p)
	}
}

func TestMapAndFilter(t *testing.T) {
	double := Map(func(t stream.Tuple) (stream.Key, any, bool) {
		v := t.Payload.(int)
		if v < 0 {
			return 0, nil, false
		}
		return t.Key, v * 2, true
	})
	var c collected
	double.OnTuple(Context{}, stream.Tuple{Key: 1, Payload: 21}, c.emitter())
	double.OnTuple(Context{}, stream.Tuple{Key: 2, Payload: -1}, c.emitter())
	if len(c.payloads) != 1 || c.payloads[0] != 42 {
		t.Errorf("map emitted %v", c.payloads)
	}

	even := Filter(func(t stream.Tuple) bool { return t.Payload.(int)%2 == 0 })
	c = collected{}
	even.OnTuple(Context{}, stream.Tuple{Key: 3, Payload: 4}, c.emitter())
	even.OnTuple(Context{}, stream.Tuple{Key: 4, Payload: 5}, c.emitter())
	if len(c.payloads) != 1 || c.payloads[0] != 4 || c.keys[0] != 3 {
		t.Errorf("filter emitted %v %v", c.keys, c.payloads)
	}
}

func TestPassthrough(t *testing.T) {
	var c collected
	Passthrough().OnTuple(Context{}, stream.Tuple{Key: 9, Payload: "x"}, c.emitter())
	if len(c.payloads) != 1 || c.payloads[0] != "x" || c.keys[0] != 9 {
		t.Errorf("passthrough emitted %v %v", c.keys, c.payloads)
	}
}

func TestWordSplitter(t *testing.T) {
	var c collected
	WordSplitter().OnTuple(Context{}, stream.Tuple{Payload: "  first set \n second"}, c.emitter())
	want := []any{"first", "set", "second"}
	if !reflect.DeepEqual(c.payloads, want) {
		t.Errorf("split = %v, want %v", c.payloads, want)
	}
	for i, p := range c.payloads {
		if c.keys[i] != stream.KeyOfString(p.(string)) {
			t.Errorf("word %q keyed %d", p, c.keys[i])
		}
	}
	// Non-string payloads are ignored.
	c = collected{}
	WordSplitter().OnTuple(Context{}, stream.Tuple{Payload: 42}, c.emitter())
	if len(c.payloads) != 0 {
		t.Error("non-string payload should emit nothing")
	}
}

func wcTuple(word string) stream.Tuple {
	return stream.Tuple{Key: stream.KeyOfString(word), Payload: word}
}

func TestWordCounterContinuous(t *testing.T) {
	w := NewWordCounter(0)
	var c collected
	for _, word := range []string{"set", "second", "set"} {
		w.OnTuple(Context{}, wcTuple(word), c.emitter())
	}
	if got := w.Count("set"); got != 2 {
		t.Errorf("Count(set) = %d", got)
	}
	if got := w.Count("absent"); got != 0 {
		t.Errorf("Count(absent) = %d", got)
	}
	if w.Distinct() != 2 {
		t.Errorf("Distinct = %d", w.Distinct())
	}
	last := c.payloads[len(c.payloads)-1].(WordCount)
	if last.Word != "set" || last.Count != 2 {
		t.Errorf("last emission = %+v", last)
	}
}

func TestWordCounterWindowed(t *testing.T) {
	w := NewWordCounter(30_000)
	var c collected
	em := c.emitter()
	w.OnTuple(Context{Now: 0}, wcTuple("a"), em)
	w.OnTuple(Context{Now: 10}, wcTuple("a"), em)
	w.OnTuple(Context{Now: 20}, wcTuple("b"), em)
	if len(c.payloads) != 0 {
		t.Fatal("windowed counter should not emit per tuple")
	}
	w.OnTime(1_000, em) // window start pinned at 1000
	if len(c.payloads) != 0 {
		t.Fatal("window should not close yet")
	}
	w.OnTime(31_000, em)
	if len(c.payloads) != 2 {
		t.Fatalf("window close emitted %d, want 2", len(c.payloads))
	}
	// After flush, state resets.
	if w.Distinct() != 0 {
		t.Errorf("Distinct after flush = %d", w.Distinct())
	}
	// Counts were correct.
	total := int64(0)
	for _, p := range c.payloads {
		total += p.(WordCount).Count
	}
	if total != 3 {
		t.Errorf("flushed total = %d, want 3", total)
	}
}

func TestWordCounterSnapshotRestore(t *testing.T) {
	w := NewWordCounter(0)
	var c collected
	for _, word := range []string{"x", "y", "x", "z", "x"} {
		w.OnTuple(Context{}, wcTuple(word), c.emitter())
	}
	kv, err := w.State().TakeCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	// Snapshot is a deep copy: further updates don't leak in.
	w.OnTuple(Context{}, wcTuple("x"), c.emitter())

	w2 := NewWordCounter(0)
	if err := w2.State().Restore(kv); err != nil {
		t.Fatal(err)
	}
	if got := w2.Count("x"); got != 3 {
		t.Errorf("restored Count(x) = %d, want 3", got)
	}
	if got := w2.Count("z"); got != 1 {
		t.Errorf("restored Count(z) = %d, want 1", got)
	}
	if w2.Distinct() != 3 {
		t.Errorf("restored Distinct = %d", w2.Distinct())
	}
}

func TestWordCounterEmitOnUpdate(t *testing.T) {
	w := NewWordCounter(30_000)
	w.EmitOnUpdate = true
	var c collected
	w.OnTuple(Context{Now: 1}, wcTuple("hello"), c.emitter())
	if len(c.payloads) != 1 {
		t.Error("EmitOnUpdate should emit per tuple")
	}
}

func TestKeyedSum(t *testing.T) {
	s := NewKeyedSum(0, func(p any) (float64, bool) {
		v, ok := p.(float64)
		return v, ok
	})
	var c collected
	s.OnTuple(Context{}, stream.Tuple{Key: 1, Payload: 2.5}, c.emitter())
	s.OnTuple(Context{}, stream.Tuple{Key: 1, Payload: 1.5}, c.emitter())
	s.OnTuple(Context{}, stream.Tuple{Key: 2, Payload: 10.0}, c.emitter())
	s.OnTuple(Context{}, stream.Tuple{Key: 2, Payload: "bad"}, c.emitter())
	if got := s.Sum(1); got != 4.0 {
		t.Errorf("Sum(1) = %v", got)
	}
	if got := s.Sum(2); got != 10.0 {
		t.Errorf("Sum(2) = %v", got)
	}
	if len(c.payloads) != 3 {
		t.Errorf("emitted %d", len(c.payloads))
	}

	kv, err := s.State().TakeCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	s2 := NewKeyedSum(0, nil)
	if err := s2.State().Restore(kv); err != nil {
		t.Fatal(err)
	}
	if s2.Sum(1) != 4.0 || s2.Sum(2) != 10.0 {
		t.Error("snapshot/restore lost sums")
	}
}

func TestKeyedSumWindowed(t *testing.T) {
	s := NewKeyedSum(1_000, func(p any) (float64, bool) {
		v, ok := p.(float64)
		return v, ok
	})
	var c collected
	em := c.emitter()
	s.OnTuple(Context{Now: 10}, stream.Tuple{Key: 1, Payload: 1.0}, em)
	s.OnTime(100, em)
	if len(c.payloads) != 0 {
		t.Fatal("early flush")
	}
	s.OnTime(1_200, em)
	if len(c.payloads) != 1 {
		t.Fatalf("flush emitted %d", len(c.payloads))
	}
	if got := c.payloads[0].(KeyedSumResult); got.Sum != 1.0 {
		t.Errorf("flushed %v", got)
	}
	if s.Sum(1) != 0 {
		t.Error("window did not reset")
	}
}

func TestTopKReducer(t *testing.T) {
	r := NewTopKReducer(2, 30_000)
	var c collected
	em := c.emitter()
	feed := map[string]int{"en": 5, "de": 3, "fr": 1}
	for item, n := range feed {
		for i := 0; i < n; i++ {
			r.OnTuple(Context{}, stream.Tuple{Key: stream.KeyOfString(item), Payload: item}, em)
		}
	}
	top := r.TopK()
	if len(top) != 2 || top[0].Item != "en" || top[0].Count != 5 || top[1].Item != "de" {
		t.Errorf("TopK = %v", top)
	}

	// Periodic emission.
	r.OnTime(1, em)
	if len(c.payloads) != 0 {
		t.Fatal("should not emit before period")
	}
	r.OnTime(40_000, em)
	if len(c.payloads) != 1 {
		t.Fatalf("emitted %d rankings", len(c.payloads))
	}
	ranking := c.payloads[0].(Ranking)
	if ranking[0].Item != "en" {
		t.Errorf("ranking = %v", ranking)
	}

	// Snapshot / restore.
	kv, err := r.State().TakeCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	r2 := NewTopKReducer(2, 30_000)
	if err := r2.State().Restore(kv); err != nil {
		t.Fatal(err)
	}
	if got := r2.TopK(); !reflect.DeepEqual(got, top) {
		t.Errorf("restored TopK = %v, want %v", got, top)
	}
}

func TestTopKMerger(t *testing.T) {
	m := NewTopKMerger(2)
	var c collected
	em := c.emitter()
	k := stream.KeyOfString("topk-ranking")
	m.OnTuple(Context{}, stream.Tuple{Key: k, Payload: Ranking{{"en", 10}, {"de", 5}}}, em)
	m.OnTuple(Context{}, stream.Tuple{Key: k, Payload: Ranking{{"fr", 7}, {"en", 12}}}, em)
	if len(c.payloads) != 2 {
		t.Fatalf("merger emitted %d", len(c.payloads))
	}
	final := c.payloads[1].(Ranking)
	if final[0].Item != "en" || final[0].Count != 12 || final[1].Item != "fr" {
		t.Errorf("merged ranking = %v", final)
	}

	kv, err := m.State().TakeCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	m2 := NewTopKMerger(2)
	if err := m2.State().Restore(kv); err != nil {
		t.Fatal(err)
	}
	c = collected{}
	m2.OnTuple(Context{}, stream.Tuple{Key: k, Payload: Ranking{}}, c.emitter())
	got := c.payloads[0].(Ranking)
	if got[0].Item != "en" || got[0].Count != 12 {
		t.Errorf("restored merger ranking = %v", got)
	}
}

func TestWindowJoin(t *testing.T) {
	enc := func(p any) []byte { return []byte(p.(string)) }
	dec := func(b []byte) any { return string(b) }
	j := NewWindowJoin(1_000, enc, dec)
	var c collected
	em := c.emitter()
	j.OnTuple(Context{Now: 0, Input: 0}, stream.Tuple{Key: 1, Payload: "L1"}, em)
	j.OnTuple(Context{Now: 100, Input: 1}, stream.Tuple{Key: 1, Payload: "R1"}, em)
	if len(c.payloads) != 1 {
		t.Fatalf("join emitted %d", len(c.payloads))
	}
	pair := c.payloads[0].(JoinedPair)
	if pair.Left != "L1" || pair.Right != "R1" {
		t.Errorf("pair = %+v", pair)
	}
	// Different key: no match.
	j.OnTuple(Context{Now: 150, Input: 1}, stream.Tuple{Key: 2, Payload: "R2"}, em)
	if len(c.payloads) != 1 {
		t.Error("cross-key match emitted")
	}
	// Window expiry: L1 is gone at Now=2000.
	j.OnTuple(Context{Now: 2_000, Input: 1}, stream.Tuple{Key: 1, Payload: "R3"}, em)
	if len(c.payloads) != 1 {
		t.Error("expired row matched")
	}
	// OnTime garbage-collects empty rows.
	j.OnTime(10_000, em)
	if j.WindowSize() != 0 {
		t.Errorf("WindowSize after expiry = %d", j.WindowSize())
	}
}

func TestWindowJoinSnapshotRestore(t *testing.T) {
	enc := func(p any) []byte { return []byte(p.(string)) }
	dec := func(b []byte) any { return string(b) }
	j := NewWindowJoin(10_000, enc, dec)
	var c collected
	em := c.emitter()
	j.OnTuple(Context{Now: 5, Input: 0}, stream.Tuple{Key: 1, Payload: "L1"}, em)
	j.OnTuple(Context{Now: 6, Input: 0}, stream.Tuple{Key: 2, Payload: "L2"}, em)

	kv, err := j.State().TakeCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	j2 := NewWindowJoin(10_000, enc, dec)
	if err := j2.State().Restore(kv); err != nil {
		t.Fatal(err)
	}
	if j2.WindowSize() != 2 {
		t.Fatalf("restored WindowSize = %d", j2.WindowSize())
	}
	c = collected{}
	j2.OnTuple(Context{Now: 10, Input: 1}, stream.Tuple{Key: 1, Payload: "R1"}, c.emitter())
	if len(c.payloads) != 1 {
		t.Fatal("restored join did not match")
	}
	pair := c.payloads[0].(JoinedPair)
	if pair.Left != "L1" || pair.Right != "R1" {
		t.Errorf("pair = %+v", pair)
	}
}
