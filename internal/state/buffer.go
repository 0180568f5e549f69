package state

import (
	"iter"
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
// Tuples per target are kept in emission (timestamp) order in a list of
// chunks. An append writes into the last chunk and starts a new one when
// it is full, so no retained tuple is ever copied; an
// acknowledgement-driven trim finds the cut with a binary search, drops
// every chunk it covers whole and advances a head index inside the one
// it cuts. So a target holds its live window, less than a chunk more at
// either end and one spare chunk, and a burst's memory goes back with
// the chunks its trims drop.
//
// Buffer is not safe for concurrent use; the owning node serialises
// access.
type Buffer struct {
	// perTarget holds, per downstream instance, the retained tuples.
	// Entries are pointers so BufHandle stays valid across trims and
	// repartitioning (see Handle).
	perTarget map[plan.InstanceID]*targetBuf
}

// chunkTuples is the capacity of a full chunk: 1 024 tuples, 40 KiB.
const chunkTuples = 1024

// firstChunk is the capacity of a target's first chunk. Each later chunk
// doubles its predecessor's up to chunkTuples, so a target that holds a
// few tuples does not cost a full chunk.
const firstChunk = 64

// targetBuf holds the retained tuples for one downstream instance: the
// live tuples are chunks[0][head:] followed by every later chunk whole;
// chunks[0][:head] has been trimmed (and zeroed, so payloads are
// collectable). Every chunk holds a live tuple, except a lone chunk that
// a trim of everything left empty for the next append to fill. Every
// chunk but the last is full.
type targetBuf struct {
	chunks [][]stream.Tuple
	head   int
	// spare is a full-size chunk a trim dropped, zeroed, which the next
	// chunk append takes instead of allocating: a window trimmed more
	// often than a chunk fills then allocates nothing.
	spare []stream.Tuple
}

func (tb *targetBuf) append(t stream.Tuple) {
	size := firstChunk
	if n := len(tb.chunks); n > 0 {
		last := &tb.chunks[n-1]
		if len(*last) < cap(*last) {
			*last = append(*last, t)
			return
		}
		size = min(max(2*cap(*last), firstChunk), chunkTuples)
	}
	// Chunks are full-size by the time a trim leaves a spare.
	c := tb.spare
	if c == nil {
		c = make([]stream.Tuple, 0, size)
	}
	tb.spare = nil
	tb.chunks = append(tb.chunks, append(c, t))
}

// segments yields the live tuples chunk by chunk, oldest first.
func (tb *targetBuf) segments() iter.Seq[[]stream.Tuple] {
	return func(yield func([]stream.Tuple) bool) {
		for i, c := range tb.chunks {
			if i == 0 {
				c = c[tb.head:]
			}
			if len(c) > 0 && !yield(c) {
				return
			}
		}
	}
}

func (tb *targetBuf) len() int {
	n := -tb.head
	for _, c := range tb.chunks {
		n += len(c)
	}
	return n
}

// appendLive appends the live tuples to dst.
func (tb *targetBuf) appendLive(dst []stream.Tuple) []stream.Tuple {
	for seg := range tb.segments() {
		dst = append(dst, seg...)
	}
	return dst
}

// trim discards live tuples with TS ≤ ts and returns how many. One
// binary search finds the first chunk whose newest tuple survives (or
// the last chunk); the chunks before it are dropped whole, and a second
// search advances the head index inside it past the zeroed slots. A trim
// of everything resets the last chunk in place, so a steady emit/trim
// round that drains a target allocates nothing.
func (tb *targetBuf) trim(ts int64) int {
	cs, before := tb.chunks, tb.len()
	if len(cs) == 0 {
		return 0
	}
	k := min(len(cs)-1, sort.Search(len(cs), func(k int) bool {
		c := cs[k]
		return len(c) > 0 && c[len(c)-1].TS > ts
	}))
	if k > 0 {
		if d := cs[k-1]; tb.spare == nil && cap(d) == chunkTuples {
			clear(d)
			tb.spare = d[:0]
		}
		m := copy(cs, cs[k:])
		clear(cs[m:])
		tb.chunks, tb.head = cs[:m], 0
	}
	c, lo := tb.chunks[0], tb.head
	i := lo + sort.Search(len(c)-lo, func(i int) bool { return c[lo+i].TS > ts })
	clear(c[lo:i])
	tb.head = i
	if i == len(c) { // only the last chunk is left, and it is empty
		tb.chunks[0], tb.head = c[:0], 0
	}
	return before - tb.len()
}

// reset drops all tuples, and the chunks with them, but keeps the struct
// (and any handles to it) valid.
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
	return tb.appendLive(make([]stream.Tuple, 0, tb.len()))
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
			out = tb.appendLive(out)
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
		if tb.len() > 0 {
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
		// The survivors are appended afresh.
		old := *tb
		tb.reset()
		for seg := range old.segments() {
			for _, t := range seg {
				if t.Born < cutoff {
					n++
				} else {
					tb.append(t)
				}
			}
		}
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
		n += tb.len()
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
	return tb.len()
}

// Clone returns a deep copy of the buffer, chunk by chunk, each copy
// sized to the live tuples it holds (payloads are shared, as tuples are
// immutable by convention). Targets with no live tuples are omitted from
// the copy.
func (b *Buffer) Clone() *Buffer {
	out := NewBuffer()
	for target, tb := range b.perTarget {
		var cp targetBuf
		for seg := range tb.segments() {
			cp.chunks = append(cp.chunks, append(make([]stream.Tuple, 0, len(seg)), seg...))
		}
		if cp.chunks != nil {
			out.perTarget[target] = &cp
		}
	}
	return out
}
