package state

import (
	"bytes"
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"seep/internal/plan"
	"seep/internal/stream"
	"seep/internal/wirecodec"
)

// bufferModel is the reference TestBufferModel holds a Buffer to: per
// target, a plain slice of the retained tuples in emission order.
type bufferModel map[plan.InstanceID][]stream.Tuple

// forOp is every tuple retained for op's instances in TuplesForOp's
// order.
func (m bufferModel) forOp(op plan.OpID) []stream.Tuple {
	var out []stream.Tuple
	for target, ts := range m {
		if target.Op == op {
			out = append(out, ts...)
		}
	}
	slices.SortFunc(out, func(a, b stream.Tuple) int {
		return cmp.Or(cmp.Compare(a.TS, b.TS), cmp.Compare(a.Key, b.Key), cmp.Compare(a.Born, b.Born))
	})
	return out
}

func (m bufferModel) targets() []plan.InstanceID {
	var out []plan.InstanceID
	for target, ts := range m {
		if len(ts) > 0 {
			out = append(out, target)
		}
	}
	SortInstanceIDs(out)
	return out
}

func (m bufferModel) len() int {
	n := 0
	for _, ts := range m {
		n += len(ts)
	}
	return n
}

// TestBufferModel runs seeded random sequences of every Buffer operation
// against bufferModel, each sequence trimming its targets back to one
// window size — empty, one tuple, and either side of one and three chunk
// boundaries — so appends, trims and filters cut chunks at every
// alignment. After each step the buffer must read as the model through
// every accessor, encode to the bytes of the model's slices, replay in
// their order, keep TS strictly increasing per target, and hold at most
// its live tuples plus maxSlack.
func TestBufferModel(t *testing.T) {
	const c = chunkTuples
	for _, window := range []int{0, 1, c - 1, c, c + 1, 3*c + 7} {
		for seed := int64(1); seed <= 2; seed++ {
			t.Run(fmt.Sprintf("window=%d/seed=%d", window, seed), func(t *testing.T) {
				runBufferModel(t, rand.New(rand.NewSource(seed)), window)
			})
		}
	}
}

func runBufferModel(t *testing.T, r *rand.Rand, window int) {
	const steps = 64
	ops := []plan.OpID{"a", "b"}
	targets := []plan.InstanceID{inst("a", 1), inst("a", 2), inst("a", 3), inst("b", 1)}
	b, m := NewBuffer(), bufferModel{}
	handles := map[plan.InstanceID]BufHandle{}
	for _, target := range targets {
		handles[target] = b.Handle(target)
	}
	ts := int64(0)
	// cutAt is the TS a trim of target passes to leave it window tuples,
	// the newest TS of one of its chunks, or a random point of its
	// retained range.
	cutAt := func(target plan.InstanceID) int64 {
		live := m[target]
		switch tb := b.perTarget[target]; {
		case len(live) == 0:
			return ts
		case r.Intn(2) > 0 && len(live) > window:
			return live[len(live)-window-1].TS
		case r.Intn(2) > 0 && tb != nil && len(tb.chunks) > 0:
			c := tb.chunks[r.Intn(len(tb.chunks))]
			return c[len(c)-1].TS
		}
		return live[r.Intn(len(live))].TS
	}
	for step := 0; step < steps; step++ {
		target := targets[r.Intn(len(targets))]
		op := ops[r.Intn(len(ops))]
		var what string
		switch k := r.Intn(12); {
		case k < 4: // appends, across chunk boundaries; Born is not monotone
			n := 1 + r.Intn(2*chunkTuples)
			what = fmt.Sprintf("append %d to %s", n, target)
			viaHandle := k%2 == 0
			for range n {
				ts++
				tu := stream.Tuple{TS: ts, Key: stream.Key(r.Uint64()), Born: r.Int63n(1000), Payload: ts}
				if viaHandle {
					handles[target].Append(tu)
				} else {
					b.Append(target, tu)
				}
				m[target] = append(m[target], tu)
			}
		case k < 6:
			cut := cutAt(target)
			what = fmt.Sprintf("TrimInstance(%s, %d)", target, cut)
			want := 0
			for len(m[target]) > 0 && m[target][0].TS <= cut {
				m[target] = m[target][1:]
				want++
			}
			if got := b.TrimInstance(target, cut); got != want {
				t.Fatalf("step %d: %s trimmed %d, want %d", step, what, got, want)
			}
		case k == 6:
			cut := cutAt(target)
			what = fmt.Sprintf("Trim(%s, %d)", target.Op, cut)
			want := 0
			for tg, live := range m {
				if tg.Op == target.Op {
					i, _ := slices.BinarySearchFunc(live, cut+1, func(tu stream.Tuple, ts int64) int { return cmp.Compare(tu.TS, ts) })
					m[tg] = live[i:]
					want += i
				}
			}
			if got := b.Trim(target.Op, cut); got != want {
				t.Fatalf("step %d: %s trimmed %d, want %d", step, what, got, want)
			}
		case k == 7:
			cutoff := r.Int63n(400)
			what = fmt.Sprintf("TrimBornBefore(%d)", cutoff)
			want := 0
			for tg, live := range m {
				kept := slices.DeleteFunc(slices.Clone(live), func(tu stream.Tuple) bool { return tu.Born < cutoff })
				want += len(live) - len(kept)
				m[tg] = kept
			}
			if got := b.TrimBornBefore(cutoff); got != want {
				t.Fatalf("step %d: %s trimmed %d, want %d", step, what, got, want)
			}
		case k == 8:
			what = fmt.Sprintf("DropOp(%s)", op)
			want := m.forOp(op)
			if got := b.DropOp(op); !slices.Equal(got, want) {
				t.Fatalf("step %d: %s returned %d tuples, want %d", step, what, len(got), len(want))
			}
			for tg := range m {
				if tg.Op == op {
					delete(m, tg)
				}
			}
		case k == 9:
			what = fmt.Sprintf("Repartition(%s)", op)
			var entries []RouteEntry
			var insts []plan.InstanceID
			for _, tg := range targets {
				if tg.Op == op {
					insts = append(insts, tg)
				}
			}
			insts = insts[:1+r.Intn(len(insts))]
			for i, kr := range FullRange.SplitEven(len(insts)) {
				entries = append(entries, RouteEntry{Target: insts[i], Range: kr})
			}
			rt, err := NewRoutingFromEntries(entries)
			if err != nil {
				t.Fatal(err)
			}
			moved := m.forOp(op)
			for tg := range m {
				if tg.Op == op {
					delete(m, tg)
				}
			}
			for _, tu := range moved {
				to := rt.Lookup(tu.Key)
				m[to] = append(m[to], tu)
			}
			b.Repartition(op, rt)
		case k == 10: // carry on with a clone; the original must not see its appends
			what = "Clone"
			cl := b.Clone()
			checkBufferModel(t, step, what, cl, m)
			ts++
			tu := stream.Tuple{TS: ts, Born: 999, Payload: ts}
			cl.Append(target, tu)
			checkBufferModel(t, step, what+" and an append to the clone", b, m)
			m[target] = append(m[target], tu)
			b = cl
			for _, tg := range targets {
				handles[tg] = b.Handle(tg)
			}
		default: // carry on with what the checkpoint's buffer section decodes to
			what = "EncodeBuffer/DecodeBuffer"
			e := stream.NewEncoder(0)
			if err := EncodeBuffer(e, b, GobPayloadCodec{}); err != nil {
				t.Fatal(err)
			}
			want := stream.NewEncoder(0)
			want.Uint32(uint32(len(m.targets())))
			for _, tg := range m.targets() {
				encodeInstanceID(want, tg)
				if err := wirecodec.EncodeTuples(want, m[tg], GobPayloadCodec{}); err != nil {
					t.Fatal(err)
				}
			}
			if !bytes.Equal(e.Bytes(), want.Bytes()) {
				t.Fatalf("step %d: the buffer encodes to other bytes than its tuples in one slice", step)
			}
			d := stream.NewDecoder(e.Bytes())
			got, err := DecodeBuffer(d, GobPayloadCodec{})
			if err != nil || d.Remaining() != 0 {
				t.Fatalf("step %d: decode: %v (%d bytes left)", step, err, d.Remaining())
			}
			b = got
			for _, tg := range targets {
				handles[tg] = b.Handle(tg)
			}
		}
		checkBufferModel(t, step, what, b, m)
	}
}

// checkBufferModel compares b with m through every accessor, the replay
// order and the chunk layout.
func checkBufferModel(t *testing.T, step int, what string, b *Buffer, m bufferModel) {
	t.Helper()
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("step %d, after %s: %s", step, what, fmt.Sprintf(format, args...))
	}
	if got, want := b.Targets(), m.targets(); !slices.Equal(got, want) {
		fail("Targets() = %v, want %v", got, want)
	}
	if got, want := b.Len(), m.len(); got != want {
		fail("Len() = %d, want %d", got, want)
	}
	for target, want := range m {
		if got := b.Tuples(target); !slices.Equal(got, want) {
			fail("Tuples(%s): %d tuples, want %d", target, len(got), len(want))
		}
		if got := b.LenFor(target); got != len(want) {
			fail("LenFor(%s) = %d, want %d", target, got, len(want))
		}
		for i := 1; i < len(want); i++ {
			if want[i].TS <= want[i-1].TS {
				fail("TS not strictly increasing for %s at %d", target, i)
			}
		}
	}
	for _, op := range []plan.OpID{"a", "b"} {
		if got, want := b.TuplesForOp(op), m.forOp(op); !slices.Equal(got, want) {
			fail("TuplesForOp(%s): %d tuples, want %d", op, len(got), len(want))
		}
	}
	var replayed, want []Replay
	self := inst("up", 1)
	for r := range DownstreamReplay(&Checkpoint{Instance: self, Buffer: b}, func(plan.OpID) *Routing { return nil }) {
		replayed = append(replayed, r)
	}
	for _, target := range m.targets() {
		for _, tu := range m[target] {
			want = append(want, Replay{From: self, To: target, T: tu})
		}
	}
	if !slices.Equal(replayed, want) {
		fail("DownstreamReplay: %d tuples out of order or missing, want %d", len(replayed), len(want))
	}
	for target, tb := range b.perTarget {
		live := tb.len()
		for i, c := range tb.chunks {
			switch {
			case len(c) == 0 && len(tb.chunks) > 1:
				fail("%s: chunk %d of %d is empty", target, i, len(tb.chunks))
			case i < len(tb.chunks)-1 && len(c) != cap(c):
				fail("%s: chunk %d holds %d of %d slots before the last", target, i, len(c), cap(c))
			case cap(c) > chunkTuples:
				fail("%s: chunk %d has %d slots", target, i, cap(c))
			}
		}
		dirty := func(tu stream.Tuple) bool { return tu != stream.Tuple{} }
		if len(tb.chunks) > 0 {
			if head := tb.chunks[0]; tb.head >= max(len(head), 1) || slices.ContainsFunc(head[:tb.head], dirty) {
				fail("%s: head %d past the first chunk's %d tuples, or its trimmed slots not zeroed", target, tb.head, len(head))
			}
			if last := tb.chunks[len(tb.chunks)-1]; slices.ContainsFunc(last[len(last):cap(last)], dirty) {
				fail("%s: the last chunk's free slots are not zeroed", target)
			}
		}
		if sp := tb.spare; cap(sp) != 0 && (len(sp) != 0 || cap(sp) != chunkTuples || slices.ContainsFunc(sp[:cap(sp)], dirty)) {
			fail("%s: the spare holds %d of %d slots, or is not zeroed", target, len(sp), cap(sp))
		}
		if s := slots(tb); s >= live+maxSlack {
			fail("%s: %d live tuples hold %d slots", target, live, s)
		}
	}
}
