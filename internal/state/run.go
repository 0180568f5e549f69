package state

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"iter"
	"slices"
	"sort"

	"seep/internal/stream"
)

// Run is an immutable sorted run of per-key state fragments — the one
// representation of processing state in flight: what a store captures,
// a checkpoint ships, a backup host splits and folds, and a spill chunk
// holds on disk. Its body is the processing section's wire records,
// [key:8][len:4][fragment] in strictly ascending key order, so encoding
// a run is one append and decoding one is an index built over the
// received bytes. Because a run is never modified after it is built,
// copies, clones and key-range parts share one body. The zero Run is
// empty.
type Run struct {
	keys []stream.Key
	// off[i] is where record i starts in body and off[len(keys)] where
	// the last one ends; a part of a larger run keeps the whole body.
	off  []int
	body []byte
}

// recHdr is the key and length prefix in front of every fragment.
const recHdr = 12

// Len returns the number of keys.
func (r Run) Len() int { return len(r.keys) }

// Keys returns the keys, ascending. The slice is the run's own: read it,
// do not modify it.
func (r Run) Keys() []stream.Key { return r.keys }

// records returns the run's wire form.
func (r Run) records() []byte {
	if len(r.keys) == 0 {
		return nil
	}
	return r.body[r.off[0]:r.off[len(r.keys)]]
}

// Size returns the serialised footprint the cost model charges: 8 bytes
// of key plus the fragment, per entry.
func (r Run) Size() int { return len(r.records()) - 4*len(r.keys) }

// frag returns record i's fragment, capped so an append cannot reach the
// next record.
func (r Run) frag(i int) []byte { return r.body[r.off[i]+recHdr : r.off[i+1] : r.off[i+1]] }

// Get returns the fragment stored under k. It aliases the run.
func (r Run) Get(k stream.Key) ([]byte, bool) {
	i, ok := slices.BinarySearch(r.keys, k)
	if !ok {
		return nil, false
	}
	return r.frag(i), true
}

// All iterates the entries in ascending key order. Fragments alias the
// run.
func (r Run) All() iter.Seq2[stream.Key, []byte] {
	return func(yield func(stream.Key, []byte) bool) {
		for i, k := range r.keys {
			if !yield(k, r.frag(i)) {
				return
			}
		}
	}
}

// Range returns the part of the run inside kr: two binary searches and a
// sub-slice, no copy.
func (r Run) Range(kr KeyRange) Run {
	lo, _ := slices.BinarySearch(r.keys, kr.Lo)
	hi := lo + sort.Search(len(r.keys)-lo, func(i int) bool { return r.keys[lo+i] > kr.Hi })
	if lo == hi {
		return Run{}
	}
	return Run{keys: r.keys[lo:hi], off: r.off[lo : hi+1], body: r.body}
}

// Equal reports whether two runs hold the same keys and fragments.
func (r Run) Equal(o Run) bool { return bytes.Equal(r.records(), o.records()) }

// scanRun indexes n records laid out back to back in body without
// copying them: the returned run aliases body, which the caller must
// own. Records that overrun body, keys that do not strictly ascend and
// bytes left over are errors, and no run is returned.
func scanRun(body []byte, n int) (Run, error) {
	if n > len(body)/recHdr {
		return Run{}, fmt.Errorf("state: %d processing-state entries exceed the %d bytes left", n, len(body))
	}
	r := Run{keys: make([]stream.Key, n), off: make([]int, n+1), body: body}
	pos := 0
	for i := range r.keys {
		if len(body)-pos < recHdr {
			return Run{}, fmt.Errorf("state: processing-state entry %d: %w", i, stream.ErrShortBuffer)
		}
		k := stream.Key(binary.LittleEndian.Uint64(body[pos:]))
		if i > 0 && k <= r.keys[i-1] {
			return Run{}, fmt.Errorf("state: processing-state key %d after %d: keys must strictly ascend", k, r.keys[i-1])
		}
		end := pos + recHdr + int(binary.LittleEndian.Uint32(body[pos+8:]))
		if end > len(body) {
			return Run{}, fmt.Errorf("state: processing-state entry %d: %w", i, stream.ErrShortBuffer)
		}
		r.keys[i], r.off[i] = k, pos
		pos = end
	}
	if pos != len(body) {
		return Run{}, fmt.Errorf("state: %d bytes after the last processing-state entry", len(body)-pos)
	}
	r.off[n] = pos
	return r, nil
}

// RunBuilder assembles a Run record by record, keys strictly ascending.
// The zero value is ready; Run hands over what was built.
type RunBuilder struct{ r Run }

// grow reserves room for n more records of recordBytes in total.
func (b *RunBuilder) grow(n, recordBytes int) {
	b.r.keys = slices.Grow(b.r.keys, n)
	b.r.off = slices.Grow(b.r.off, n+1)
	b.r.body = slices.Grow(b.r.body, recordBytes)
}

// Append adds one entry. A key at or below the previous one is a
// programming error and panics: input from outside goes through the
// decoders, which report it.
func (b *RunBuilder) Append(k stream.Key, frag []byte) {
	b.begin(k)
	b.r.body = append(b.r.body, frag...)
	b.end()
}

// Run returns the run built so far; the builder must not be used again.
func (b *RunBuilder) Run() Run { return b.r }

// begin opens a record for k; the caller appends the fragment to
// b.r.body and then calls end, or abort to take the record back.
func (b *RunBuilder) begin(k stream.Key) {
	if n := len(b.r.keys); n > 0 && k <= b.r.keys[n-1] {
		panic(fmt.Sprintf("state: run key %d appended after %d", k, b.r.keys[n-1]))
	}
	if len(b.r.off) == 0 {
		b.r.off = append(b.r.off, len(b.r.body))
	}
	b.r.keys = append(b.r.keys, k)
	b.r.body = binary.LittleEndian.AppendUint64(b.r.body, uint64(k))
	b.r.body = append(b.r.body, 0, 0, 0, 0)
}

func (b *RunBuilder) end() {
	start := b.r.off[len(b.r.off)-1]
	binary.LittleEndian.PutUint32(b.r.body[start+8:], uint32(len(b.r.body)-start-recHdr))
	b.r.off = append(b.r.off, len(b.r.body))
}

func (b *RunBuilder) abort() {
	b.r.keys = b.r.keys[:len(b.r.keys)-1]
	b.r.body = b.r.body[:b.r.off[len(b.r.off)-1]]
}

// copyRecord appends record i of src unchanged.
func (b *RunBuilder) copyRecord(src Run, i int) {
	b.begin(src.keys[i])
	b.r.body = append(b.r.body, src.frag(i)...)
	b.end()
}

// mergeRuns unions runs whose keys are disjoint into a fresh run, in one
// pass that always takes the smallest head key; a key held by two runs
// is an error.
func mergeRuns(runs []Run) (Run, error) {
	var b RunBuilder
	n, size := 0, 0
	for _, r := range runs {
		n += r.Len()
		size += len(r.records())
	}
	b.grow(n, size)
	heads := make([]int, len(runs))
	for ; n > 0; n-- {
		min := -1
		for i, r := range runs {
			switch {
			case heads[i] == r.Len():
			case min < 0 || r.keys[heads[i]] < runs[min].keys[heads[min]]:
				min = i
			case r.keys[heads[i]] == runs[min].keys[heads[min]]:
				return Run{}, fmt.Errorf("state: merge overlap on key %d", r.keys[heads[i]])
			}
		}
		b.copyRecord(runs[min], heads[min])
		heads[min]++
	}
	return b.Run(), nil
}

// entry is a key with its value. The value leads, so an entry without
// one (V = struct{}) is laid out as the key alone.
type entry[V any] struct {
	v V
	k stream.Key
}

// radixSort orders es by key: an LSD radix sort on 8-bit digits that
// skips every digit all keys share. Each pass moves the entries between
// es and one scratch slice, so the result comes back in whichever holds
// it. It is internal/state's one key sort.
func radixSort[V any](es []entry[V]) []entry[V] {
	if len(es) < 2 {
		return es
	}
	var counts [8][256]int
	for _, e := range es {
		counts[0][byte(e.k)]++
		counts[1][byte(e.k>>8)]++
		counts[2][byte(e.k>>16)]++
		counts[3][byte(e.k>>24)]++
		counts[4][byte(e.k>>32)]++
		counts[5][byte(e.k>>40)]++
		counts[6][byte(e.k>>48)]++
		counts[7][byte(e.k>>56)]++
	}
	tmp := make([]entry[V], len(es))
	for d := range counts {
		c, shift := &counts[d], 8*d
		if c[byte(es[0].k>>shift)] == len(es) {
			continue
		}
		at := 0
		for b, n := range c {
			c[b], at = at, at+n
		}
		for _, e := range es {
			b := byte(e.k >> shift)
			tmp[c[b]] = e
			c[b]++
		}
		es, tmp = tmp, es
	}
	return es
}

// unionKeys merges ascending key lists into their ascending union, one
// list at a time. A single list is the union, and comes back as it is.
func unionKeys(lists [][]stream.Key) []stream.Key {
	var out []stream.Key
	for n, l := range lists {
		if n == 0 {
			out = l
			continue
		}
		merged := make([]stream.Key, 0, len(out)+len(l))
		for i, j := 0, 0; i < len(out) || j < len(l); {
			switch {
			case j == len(l) || i < len(out) && out[i] < l[j]:
				merged, i = append(merged, out[i]), i+1
			case i == len(out) || l[j] < out[i]:
				merged, j = append(merged, l[j]), j+1
			default: // in both
				merged, i, j = append(merged, l[j]), i+1, j+1
			}
		}
		out = merged
	}
	return out
}

// overlay returns base with changed's entries replacing or joining it
// and the deleted keys (ascending) removed — a linear merge into a fresh
// run.
func overlay(base, changed Run, deleted []stream.Key) Run {
	var b RunBuilder
	b.grow(base.Len()+changed.Len(), len(base.records())+len(changed.records()))
	for i, j, d := 0, 0, 0; i < base.Len() || j < changed.Len(); {
		src, at := changed, j
		if j == changed.Len() || (i < base.Len() && base.keys[i] < changed.keys[j]) {
			src, at = base, i
			i++
		} else {
			if i < base.Len() && base.keys[i] == changed.keys[j] {
				i++ // superseded
			}
			j++
		}
		k := src.keys[at]
		for d < len(deleted) && deleted[d] < k {
			d++
		}
		if d == len(deleted) || deleted[d] != k {
			b.copyRecord(src, at)
		}
	}
	return b.Run()
}
