package state

import (
	"sort"

	"seep/internal/plan"
	"seep/internal/stream"
)

// Buffer is the buffer state βo of an operator: for each downstream
// logical operator, the output tuples sent but not yet covered by a
// downstream checkpoint (§3.1). Tuples are retained so they can be
// replayed after a downstream failure and re-routed after a downstream
// scale out; they are trimmed once a downstream state backup acknowledges
// them (Algorithm 1 line 4).
//
// Tuples per target are kept in emission (timestamp) order, so the
// acknowledgement-driven trims locate the cut with a binary search and
// advance a head index instead of reslicing — amortised O(1) per tuple
// across the append/trim lifecycle. Compaction keeps memory proportional
// to what the target needs now: trimmed slots are at most half the
// window, and a backing array a burst grew is given back once it is more
// than twice the live window plus one inter-trim volume.
//
// Buffer is not safe for concurrent use; the owning node serialises
// access.
type Buffer struct {
	// perTarget holds, per downstream instance, the retained tuples.
	// Entries are pointers so BufHandle stays valid across trims and
	// repartitioning (see Handle).
	perTarget map[plan.InstanceID]*targetBuf
}

// targetBuf holds the retained tuples for one downstream instance.
// Live tuples are buf[head:]; buf[:head] has been trimmed (and zeroed,
// so payloads are collectable) but not yet compacted away.
type targetBuf struct {
	buf  []stream.Tuple
	head int
	// lastTrim is how many tuples the previous trim discarded: the
	// estimate of what arrives before the next one, which compact leaves
	// room for so a steady append/trim cycle never reallocates.
	lastTrim int
}

func (tb *targetBuf) live() []stream.Tuple { return tb.buf[tb.head:] }

func (tb *targetBuf) append(t stream.Tuple) { tb.buf = append(tb.buf, t) }

// trim discards live tuples with TS ≤ ts and returns how many. The cut
// is found with sort.Search over the TS-ordered live window; the head
// index advances in O(log n) plus O(trimmed) to release payloads.
func (tb *targetBuf) trim(ts int64) int {
	live := tb.live()
	i := sort.Search(len(live), func(i int) bool { return live[i].TS > ts })
	if i == 0 {
		return 0
	}
	for j := tb.head; j < tb.head+i; j++ {
		tb.buf[j] = stream.Tuple{}
	}
	tb.head += i
	tb.compact(i)
	return i
}

// bufSlack is the capacity compact grants beyond its estimate, so tiny
// windows are not reallocated over a handful of slots.
const bufSlack = 64

// compact runs after a trim that discarded trimmed tuples. The capacity
// the target needs is room for its live window to double plus what the
// previous inter-trim interval appended; a backing array more than twice
// that (a burst grew it) is replaced by one that fits, returning the
// rest to the allocator. Otherwise the live window slides to the front
// once trimmed slots make up at least half of the array, so no trim
// pays a copy for a few slots.
func (tb *targetBuf) compact(trimmed int) {
	live := tb.live()
	need := 2*len(live) + tb.lastTrim + bufSlack
	tb.lastTrim = trimmed
	switch {
	case cap(tb.buf) > 2*need:
		tb.buf = append(make([]stream.Tuple, 0, need), live...)
		tb.head = 0
	case tb.head >= 64 && tb.head*2 >= len(tb.buf):
		n := copy(tb.buf, live)
		clear(tb.buf[n:])
		tb.buf = tb.buf[:n]
		tb.head = 0
	}
}

// reset drops all tuples, and the backing array with them, but keeps the
// struct (and any handles to it) valid.
func (tb *targetBuf) reset() { *tb = targetBuf{} }

// NewBuffer returns an empty output buffer.
func NewBuffer() *Buffer {
	return &Buffer{perTarget: make(map[plan.InstanceID]*targetBuf)}
}

func (b *Buffer) target(t plan.InstanceID) *targetBuf {
	tb := b.perTarget[t]
	if tb == nil {
		tb = &targetBuf{}
		b.perTarget[t] = tb
	}
	return tb
}

// Append retains a tuple sent to the given downstream instance.
func (b *Buffer) Append(target plan.InstanceID, t stream.Tuple) {
	b.target(target).append(t)
}

// BufHandle is a stable append handle for one downstream instance,
// letting hot emit paths skip the per-tuple map lookup of Append. A
// handle stays valid for the lifetime of its Buffer — including across
// trims and Repartition, which clear per-target storage in place rather
// than dropping it — and is invalidated only when the owning node
// replaces the Buffer object wholesale (restore from checkpoint), after
// which handles must be re-acquired.
type BufHandle struct{ tb *targetBuf }

// Handle returns the append handle for a downstream instance, creating
// empty storage for it if needed.
func (b *Buffer) Handle(target plan.InstanceID) BufHandle {
	return BufHandle{tb: b.target(target)}
}

// Append retains a tuple via the cached handle.
func (h BufHandle) Append(t stream.Tuple) { h.tb.append(t) }

// Tuples returns the retained tuples for one downstream instance, βo(d),
// in emission order. The returned slice is a copy.
func (b *Buffer) Tuples(target plan.InstanceID) []stream.Tuple {
	tb := b.perTarget[target]
	if tb == nil {
		return nil
	}
	src := tb.live()
	out := make([]stream.Tuple, len(src))
	copy(out, src)
	return out
}

// TuplesForOp returns all retained tuples for every instance of a logical
// downstream operator, merged in timestamp order. Used when the set of
// downstream partitions changed and old per-instance assignment is stale.
// Ties on TS (possible when per-target sequences are merged) break on
// key, then lineage birth time, so replay order after repartitioning is
// deterministic regardless of map iteration order.
func (b *Buffer) TuplesForOp(op plan.OpID) []stream.Tuple {
	var out []stream.Tuple
	for target, tb := range b.perTarget {
		if target.Op == op {
			out = append(out, tb.live()...)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].TS != out[j].TS {
			return out[i].TS < out[j].TS
		}
		if out[i].Key != out[j].Key {
			return out[i].Key < out[j].Key
		}
		return out[i].Born < out[j].Born
	})
	return out
}

// Targets returns the downstream instances with retained tuples, in
// deterministic order.
func (b *Buffer) Targets() []plan.InstanceID {
	out := make([]plan.InstanceID, 0, len(b.perTarget))
	for t, tb := range b.perTarget {
		if len(tb.live()) > 0 {
			out = append(out, t)
		}
	}
	SortInstanceIDs(out)
	return out
}

// Trim discards tuples destined for any instance of logical operator op
// with timestamps ≤ ts — trim(o, τ) in §3.1, invoked after the downstream
// operator's state backup reflects those tuples. Returns the number of
// tuples discarded.
func (b *Buffer) Trim(op plan.OpID, ts int64) int {
	n := 0
	for target, tb := range b.perTarget {
		if target.Op != op {
			continue
		}
		n += tb.trim(ts)
	}
	return n
}

// TrimInstance discards tuples destined for exactly one downstream
// instance with timestamps ≤ ts. This is the acknowledgement-driven trim
// used when a partitioned downstream instance backs up its state: only
// the tuples that instance has reflected in its checkpoint may be
// discarded; siblings' tuples stay. Returns the number discarded.
func (b *Buffer) TrimInstance(target plan.InstanceID, ts int64) int {
	tb := b.perTarget[target]
	if tb == nil {
		return 0
	}
	return tb.trim(ts)
}

// TrimBornBefore discards tuples whose lineage entered the system before
// cutoff, across all targets. Upstream-backup and source-replay fault
// tolerance retain tuples only for the operator window; older tuples can
// never be needed again (§6.2). Returns the number discarded.
func (b *Buffer) TrimBornBefore(cutoff int64) int {
	n := 0
	for _, tb := range b.perTarget {
		live := tb.live()
		kept := live[:0]
		for _, t := range live {
			if t.Born >= cutoff {
				kept = append(kept, t)
			} else {
				n++
			}
		}
		for i := len(kept); i < len(live); i++ {
			live[i] = stream.Tuple{}
		}
		tb.buf = tb.buf[:tb.head+len(kept)]
		tb.compact(len(live) - len(kept))
	}
	return n
}

// DropOp removes all retained tuples for instances of op, e.g. when the
// tuples were re-assigned during repartitioning. Returns the dropped
// tuples merged in timestamp order. Per-target storage is cleared in
// place, so handles obtained before the drop remain valid.
func (b *Buffer) DropOp(op plan.OpID) []stream.Tuple {
	out := b.TuplesForOp(op)
	for target, tb := range b.perTarget {
		if target.Op == op {
			tb.reset()
		}
	}
	return out
}

// Repartition implements partition-buffer-state (Algorithm 2 lines 13-17):
// every retained tuple for logical operator op is re-assigned to the
// downstream instance owning its key under the new routing state. Tuples
// for other logical operators are untouched.
func (b *Buffer) Repartition(op plan.OpID, routing *Routing) {
	pending := b.DropOp(op)
	for _, t := range pending {
		b.Append(routing.Lookup(t.Key), t)
	}
}

// Len returns the total number of retained tuples across all targets.
func (b *Buffer) Len() int {
	n := 0
	for _, tb := range b.perTarget {
		n += len(tb.live())
	}
	return n
}

// LenFor returns the number of retained tuples for one downstream
// instance.
func (b *Buffer) LenFor(target plan.InstanceID) int {
	tb := b.perTarget[target]
	if tb == nil {
		return 0
	}
	return len(tb.live())
}

// Clone returns a deep copy of the buffer (tuple slices copied; payloads
// are shared, as tuples are immutable by convention). Targets with no
// live tuples are omitted from the copy.
func (b *Buffer) Clone() *Buffer {
	out := NewBuffer()
	for target, tb := range b.perTarget {
		src := tb.live()
		if len(src) == 0 {
			continue
		}
		cp := make([]stream.Tuple, len(src))
		copy(cp, src)
		out.perTarget[target] = &targetBuf{buf: cp}
	}
	return out
}
