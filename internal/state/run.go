package state

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"iter"
	"math"
	"math/bits"
	"slices"
	"sort"

	"seep/internal/stream"
)

// Run is an immutable sorted run of per-key records — the one
// representation of processing state in flight: what a store captures,
// a checkpoint ships, a backup host splits and folds, and a spill chunk
// holds on disk. Its body is the processing section's wire records,
// [key:8][uvarint n][n bytes] in strictly ascending key order, so
// encoding a run is one append and decoding one is an index built over
// the received bytes: one uint32 offset per record, with every key read
// from the body where it lies.
//
// A run a store captures names the store's cells once, in registration
// order — its cell table — and each record's n bytes are a uvarint cell
// mask, then [uvarint len][value] for each cell whose bit is set, in
// table order. A run built with RunBuilder.Append names no cells and
// its records' bytes are the caller's own. Runs over different cell
// tables do not merge; a run without records matches any table.
//
// Because a run is never modified after it is built, copies, clones and
// key-range parts share one body. The zero Run is empty.
type Run struct {
	cells []string
	// off[i] is where record i starts in body and off[Len()] where the
	// last one ends; a part of a larger run keeps the whole body.
	off  []uint32
	body []byte
}

// maxCells is the most cells a store may register: a record's cell
// mask is one uvarint of at most 64 bits.
const maxCells = 64

// maxRunBody bounds a run's body, which uint32 offsets index; a capture
// or merge past it is an error. A variable so tests can reach it.
var maxRunBody = math.MaxUint32

// Len returns the number of keys.
func (r Run) Len() int { return max(len(r.off)-1, 0) }

// key returns record i's key.
func (r *Run) key(i int) stream.Key { return stream.Key(binary.LittleEndian.Uint64(r.body[r.off[i]:])) }

// Keys iterates the keys in ascending order.
func (r Run) Keys() iter.Seq[stream.Key] {
	return func(yield func(stream.Key) bool) {
		for i := range r.Len() {
			if !yield(r.key(i)) {
				return
			}
		}
	}
}

// records returns the run's wire form.
func (r Run) records() []byte {
	if r.Len() == 0 {
		return nil
	}
	return r.body[r.off[0]:r.off[r.Len()]]
}

// frag returns record i's bytes behind its length, capped so an append
// cannot reach the next record.
func (r *Run) frag(i int) []byte {
	rec := r.body[r.off[i]+8 : r.off[i+1] : r.off[i+1]]
	if rec[0] < 0x80 {
		return rec[1:]
	}
	_, w := binary.Uvarint(rec)
	return rec[w:]
}

// Size returns the number of bytes encode writes — what checkpointing,
// shipping and backing up the run cost. It reads the offsets of the
// first and last records and the cell table, never a record.
func (r Run) Size() int {
	n := 8 + len(r.records())
	for _, name := range r.cells {
		n += 4 + len(name)
	}
	return n
}

// search returns the index of the first record whose key is at least k.
func (r Run) search(k stream.Key) int {
	return sort.Search(r.Len(), func(i int) bool { return r.key(i) >= k })
}

// Get returns the bytes of k's record behind its length. They alias the
// run.
func (r Run) Get(k stream.Key) ([]byte, bool) {
	if i := r.search(k); i < r.Len() && r.key(i) == k {
		return r.frag(i), true
	}
	return nil, false
}

// All iterates the entries in ascending key order, each key with its
// record's bytes behind the length, which alias the run.
func (r Run) All() iter.Seq2[stream.Key, []byte] {
	return func(yield func(stream.Key, []byte) bool) {
		for i := range r.Len() {
			if !yield(r.key(i), r.frag(i)) {
				return
			}
		}
	}
}

// Range returns the part of the run inside kr: two binary searches and a
// sub-slice, no copy. The part keeps the run's cell table.
func (r Run) Range(kr KeyRange) Run {
	lo := r.search(kr.Lo)
	hi := lo + sort.Search(r.Len()-lo, func(i int) bool { return r.key(lo+i) > kr.Hi })
	switch {
	case lo == hi:
		return Run{cells: r.cells}
	case hi-lo == r.Len():
		return r
	}
	return Run{cells: r.cells, off: r.off[lo : hi+1], body: r.body}
}

// Equal reports whether two runs hold the same keys and records over
// the same cell table.
func (r Run) Equal(o Run) bool {
	return bytes.Equal(r.records(), o.records()) && (r.Len() == 0 || slices.Equal(r.cells, o.cells))
}

// sameCells reports whether runs a and b may merge: one of them has no
// records, or both name the same cells.
func sameCells(a, b Run) error {
	if a.Len() == 0 || b.Len() == 0 || slices.Equal(a.cells, b.cells) {
		return nil
	}
	return fmt.Errorf("state: runs over cells %q and %q do not merge", a.cells, b.cells)
}

// encode writes the run as a processing section and a spill chunk carry
// it: the cell table, the entry count, then the records as they are.
func (r Run) encode(e *stream.Encoder) {
	e.Uint32(uint32(len(r.cells)))
	for _, name := range r.cells {
		e.String32(name)
	}
	e.Uint32(uint32(r.Len()))
	e.Raw(r.records())
}

// decodeRun reads a run written by encode, which must be everything d
// has left. The run indexes d's buffer instead of copying it, so the
// caller must own that buffer for as long as the run is in use.
func decodeRun(d *stream.Decoder) (Run, error) {
	nc := int(d.Uint32())
	if err := d.Err(); err != nil {
		return Run{}, err
	}
	// A name costs at least 5 bytes: its length and one byte.
	if nc > maxCells || nc > d.Remaining()/5 {
		return Run{}, fmt.Errorf("state: a cell table of %d names in %d bytes", nc, d.Remaining())
	}
	var cells []string
	if nc > 0 {
		cells = make([]string, nc)
	}
	for i := range cells {
		cells[i] = d.String32()
		if d.Err() == nil && (cells[i] == "" || slices.Contains(cells[:i], cells[i])) {
			return Run{}, fmt.Errorf("state: cell table names %q twice or empty", cells[i])
		}
	}
	n := int(d.Uint32())
	if err := d.Err(); err != nil {
		return Run{}, err
	}
	return scanRun(d.Raw(d.Remaining()), n, cells)
}

// uvarint reads the uvarint at the front of b and returns it with its
// width, 0 when b holds no canonical one: a value wider than 64 bits,
// one cut short, or one spelled longer than it needs, which would not
// re-encode to the same bytes. Hot callers read a one-byte uvarint
// themselves and call it for the rest.
func uvarint(b []byte) (v uint64, w int) {
	v, w = binary.Uvarint(b)
	if w <= 0 || w > 1 && b[w-1] == 0 {
		return 0, 0
	}
	return v, w
}

// scanRun indexes n records laid out back to back in body without
// copying them: the returned run aliases body, which the caller must
// own. Records that overrun body, keys that do not strictly ascend,
// bytes left over and, in a run that names cells, a record whose mask
// or values do not tile it are errors, and no run is returned.
func scanRun(body []byte, n int, cells []string) (Run, error) {
	minRecord := 9 // a key and a zero length
	if len(cells) > 0 {
		minRecord = 11 // and a mask and one empty value
	}
	if n > len(body)/minRecord || len(body) > maxRunBody {
		return Run{}, fmt.Errorf("state: %d processing-state entries in %d bytes", n, len(body))
	}
	r := Run{cells: cells, off: make([]uint32, n+1), body: body}
	pos := 0
	var prev stream.Key
	for i := range n {
		if len(body)-pos < 9 {
			return Run{}, fmt.Errorf("state: processing-state entry %d: %w", i, stream.ErrShortBuffer)
		}
		k := stream.Key(binary.LittleEndian.Uint64(body[pos:]))
		if i > 0 && k <= prev {
			return Run{}, fmt.Errorf("state: processing-state key %d after %d: keys must strictly ascend", k, prev)
		}
		l, w := uint64(body[pos+8]), 1
		if l >= 0x80 {
			l, w = uvarint(body[pos+8:])
		}
		if w == 0 || l > uint64(len(body)-pos-8-w) {
			return Run{}, fmt.Errorf("state: processing-state entry %d: bad length: %w", i, stream.ErrShortBuffer)
		}
		start := pos + 8 + w
		if err := walkRecord(body[start:start+int(l)], cells, nil); err != nil {
			return Run{}, fmt.Errorf("state: processing-state key %d: %w", k, err)
		}
		r.off[i], prev = uint32(pos), k
		pos = start + int(l)
	}
	if pos != len(body) {
		return Run{}, fmt.Errorf("state: %d bytes after the last processing-state entry", len(body)-pos)
	}
	r.off[n] = uint32(pos)
	return r, nil
}

// walkRecord reads a record whose bytes behind its length are rec, in a
// run over the table cells, and calls f, when not nil, with each value
// the record holds and the index of its cell. In a run that names
// cells, a mask naming none of them or one past the table and values
// that do not tile rec exactly are errors; so is an error from f, which
// ends the walk.
func walkRecord(rec []byte, cells []string, f func(c int, val []byte) error) error {
	if len(cells) == 0 {
		return nil
	}
	// The common record, read without the loop: one cell named by a
	// one-byte mask, its value behind a one-byte length.
	if f == nil && len(rec) > 1 && rec[1] < 0x80 && int(rec[1]) == len(rec)-2 {
		if m := rec[0]; m != 0 && m < 0x80 && m&(m-1) == 0 && bits.TrailingZeros8(m) < len(cells) {
			return nil
		}
	}
	m, w := uint64(0), 0
	if len(rec) > 0 {
		if m, w = uint64(rec[0]), 1; m >= 0x80 {
			m, w = uvarint(rec)
		}
	}
	if w == 0 || m == 0 || m>>len(cells) != 0 {
		return fmt.Errorf("bad cell mask for a table of %d cells", len(cells))
	}
	for c, rec := 0, rec[w:]; ; c, m = c+1, m>>1 {
		if m == 0 {
			if len(rec) != 0 {
				return fmt.Errorf("%d bytes after the record's last value", len(rec))
			}
			return nil
		}
		if m&1 == 0 {
			continue
		}
		l, w := uint64(0), 0
		if len(rec) > 0 {
			if l, w = uint64(rec[0]), 1; l >= 0x80 {
				l, w = uvarint(rec)
			}
		}
		if w == 0 || l > uint64(len(rec)-w) {
			return fmt.Errorf("a value overruns its record: %w", stream.ErrShortBuffer)
		}
		if f != nil {
			if err := f(c, rec[w:w+int(l):w+int(l)]); err != nil {
				return err
			}
		}
		rec = rec[w+int(l):]
	}
}

// RunBuilder assembles a Run record by record, keys strictly ascending.
// The zero value is ready and names no cells; Run hands over what was
// built.
type RunBuilder struct {
	r    Run
	last stream.Key // the key of the last record begun
}

// grow reserves room for n more records of recordBytes in total.
func (b *RunBuilder) grow(n, recordBytes int) {
	b.r.off = slices.Grow(b.r.off, n+1)
	b.r.body = slices.Grow(b.r.body, recordBytes)
}

// Append adds one entry, frag its record's bytes. A key at or below the
// previous one is a programming error and panics: input from outside
// goes through the decoders, which report it.
func (b *RunBuilder) Append(k stream.Key, frag []byte) {
	b.begin(k)
	b.r.body = binary.AppendUvarint(b.r.body, uint64(len(frag)))
	b.r.body = append(b.r.body, frag...)
	b.end()
}

// Run returns the run built so far; the builder must not be used again.
func (b *RunBuilder) Run() Run { return b.r }

// begin opens a record for k; the caller appends its length and bytes
// to b.r.body and then calls end, or abort to take the record back.
func (b *RunBuilder) begin(k stream.Key) {
	if len(b.r.off) > 1 && k <= b.last {
		panic(fmt.Sprintf("state: run key %d appended after %d", k, b.last))
	}
	if len(b.r.off) == 0 {
		b.r.off = append(b.r.off, uint32(len(b.r.body)))
	}
	b.last = k
	b.r.body = binary.LittleEndian.AppendUint64(b.r.body, uint64(k))
}

func (b *RunBuilder) end() { b.r.off = append(b.r.off, uint32(len(b.r.body))) }

func (b *RunBuilder) abort() { b.r.body = b.r.body[:b.r.off[len(b.r.off)-1]] }

// copyRecord appends record i of src unchanged.
func (b *RunBuilder) copyRecord(src *Run, i int) {
	if len(b.r.off) == 0 {
		b.r.off = append(b.r.off, uint32(len(b.r.body)))
	}
	b.r.body = append(b.r.body, src.body[src.off[i]:src.off[i+1]]...)
	b.end()
}

// putUvarint writes v into the one byte reserved for it at b[at],
// moving what follows to make room when v needs more (widenUvarint).
// It inlines, so the common one-byte write costs no call.
func putUvarint(b []byte, at int, v uint64) []byte {
	if v < 0x80 {
		b[at] = byte(v)
		return b
	}
	return widenUvarint(b, at, v)
}

func widenUvarint(b []byte, at int, v uint64) []byte {
	var buf [binary.MaxVarintLen64]byte
	w := binary.PutUvarint(buf[:], v)
	b = append(b, buf[1:w]...)
	copy(b[at+w:], b[at+1:len(b)-(w-1)])
	copy(b[at:], buf[:w])
	return b
}

// mergeRuns unions runs whose keys are disjoint and whose cell tables
// agree into a fresh run, in one pass that always takes the smallest
// head key; a key held by two runs is an error.
func mergeRuns(runs []Run) (Run, error) {
	var first Run // the first run with records, whose table the merge takes
	n, size := 0, 0
	for _, r := range runs {
		if err := sameCells(first, r); err != nil {
			return Run{}, err
		}
		if first.Len() == 0 {
			first = r
		}
		n += r.Len()
		size += len(r.records())
	}
	if size > maxRunBody {
		return Run{}, fmt.Errorf("state: merged run of %d bytes", size)
	}
	b := RunBuilder{r: Run{cells: first.cells}}
	b.grow(n, size)
	heads := make([]int, len(runs))
	for ; n > 0; n-- {
		min := -1
		for i := range runs {
			r := &runs[i]
			switch {
			case heads[i] == r.Len():
			case min < 0 || r.key(heads[i]) < runs[min].key(heads[min]):
				min = i
			case r.key(heads[i]) == runs[min].key(heads[min]):
				return Run{}, fmt.Errorf("state: merge overlap on key %d", r.key(heads[i]))
			}
		}
		b.copyRecord(&runs[min], heads[min])
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
// it. It is internal/state's one key sort, for the walk of a key table
// whose keys clustered.
func radixSort[V any](es []entry[V]) []entry[V] {
	if len(es) < 2 {
		return es
	}
	var counts [8][256]int
	for _, e := range es {
		for d := range counts {
			counts[d][byte(e.k>>(8*d))]++
		}
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
// and the deleted keys (ascending) removed — a fresh run, sized by a
// first pass so a backup that keeps it keeps no slack. The two runs'
// cell tables must agree.
func overlay(base, changed Run, deleted []stream.Key) (Run, error) {
	if err := sameCells(base, changed); err != nil {
		return Run{}, err
	}
	// walk visits the records in key order, passing each one the fold
	// keeps to keep; superseded and deleted ones are skipped.
	nb, nc := base.Len(), changed.Len()
	walk := func(keep func(src *Run, i int)) {
		for i, j, d := 0, 0, 0; i < nb || j < nc; {
			src, at := &changed, j
			if j == nc || (i < nb && base.key(i) < changed.key(j)) {
				src, at = &base, i
				i++
			} else {
				if i < nb && base.key(i) == changed.key(j) {
					i++ // superseded
				}
				j++
			}
			k := src.key(at)
			for d < len(deleted) && deleted[d] < k {
				d++
			}
			if d == len(deleted) || deleted[d] != k {
				keep(src, at)
			}
		}
	}
	n, size := 0, 0
	walk(func(src *Run, i int) { n, size = n+1, size+int(src.off[i+1]-src.off[i]) })
	if size > maxRunBody {
		return Run{}, fmt.Errorf("state: folded run of %d bytes", size)
	}
	b := RunBuilder{r: Run{cells: base.cells}}
	if changed.Len() > 0 {
		b.r.cells = changed.cells
	}
	b.grow(n, size)
	walk(b.copyRecord)
	return b.Run(), nil
}
