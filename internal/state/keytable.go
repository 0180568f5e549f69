package state

import (
	"math/bits"

	"seep/internal/stream"
)

// keyTable is the one representation of key-indexed data in this
// package — every cell's values, the dirty-key set, the spill sets: an
// open-addressing table from stream.Key to V whose slots ascend with
// their keys, so walking the array walks the keys in order and a capture
// sorts nothing (Amble and Knuth's ordered hash table, Comput. J. 1974).
// Keys and values sit side by side in one slot array, the value first as
// in entry[V], so a set (V = struct{}) costs 8 bytes a slot. Key 0 marks
// an empty slot, so its value is kept beside the array.
//
// A key's home slot rises with its rank, and a run of keys past their
// homes stays in rank order: an insert goes before the first larger rank
// of its run and shifts the rest of the run right, a lookup stops at an
// empty slot or a larger rank, a delete shifts the run behind it back.
// Probes never wrap: the last slots are no key's home, a tail for the
// last run, which an insert that reaches the end lengthens. The rank is
// the key itself, and each rebuild spreads the homes over the range from
// the least key held to the largest, so a split instance's part of the
// key space fills every home. Keys that cluster even so (clustered) are
// ranked by a Fibonacci hash over the whole key space until the table is
// emptied, and sorted sorts.
//
// The table grows to half again the keys it holds when more than 7/8 of
// its homes would be full, so an int64 cell costs 18–28 bytes a key at every size; a
// resize briefly holds both arrays, 2.5× the old one. A pointer a
// method returns stays valid until the next insert or delete. The zero
// table is empty, spreads its homes over the whole key space, and is
// ready to use.
type keyTable[V any] struct {
	slots   []entry[V]
	n       int // keys held in slots
	zero    V   // key 0's value, when hasZero
	hasZero bool
	tail    int // the last slots, no key's home
	// mul is 0 while a key's rank is the key, fibonacci once the keys
	// clustered: rank(k) = k·(mul|1).
	mul uint64
	// A rank r's home is the high word of (r−lo, held to 0…^cut) times
	// the homes plus c, mod 2^64: each rebuild sets them so the ranks its
	// keys span fill every home. The zero values spread the whole key
	// space.
	lo, cut, c uint64
	// debt is what inserts probed since the last rebuild beyond
	// insertProbes each, never below 0.
	debt int
}

const (
	// keyTableMinSlots is the array a table's first insert allocates.
	keyTableMinSlots = 8
	// fibonacci is 2^64/φ, odd: the hashed rank's multiplier.
	fibonacci = 0x9e3779b97f4a7c15
	// insertProbes bounds what an insert of spread keys probes on
	// average up to 7/8 load, Knuth's (1+1/(1-α)²)/2 ≈ 33.
	insertProbes = 64
)

// home is k's home slot: the high word of its rank's offset into the
// spread range times the multiplier, so homes ascend with the rank.
func (t *keyTable[V]) home(k stream.Key) int {
	r := uint64(k) * (t.mul | 1)
	hi, _ := bits.Mul64(min(max(r, t.lo)-t.lo, ^t.cut), uint64(len(t.slots)-t.tail)+t.c)
	return int(hi)
}

// clustered reports that an ordered table's keys pile up on a few
// homes: probes, by a rebuild or owed by inserts, pass 16 a key. Keys
// spread over their range probe about 5 a key at 7/8 load; keys sharing
// their top bits, or new keys past the range in ascending order
// (sequential ids), land on a few homes and would make each insert a
// scan.
func (t *keyTable[V]) clustered(probes int) bool {
	return t.mul == 0 && probes > 16*t.n+4096
}

// slotsFor is the fewest slots whose homes hold n keys at no more than
// 7/8 load, with their tail.
func slotsFor(n int) int {
	h := max(keyTableMinSlots, (8*n+6)/7)
	return h + min(h/32, 64)
}

// size returns the number of keys held.
func (t *keyTable[V]) size() int {
	if t.hasZero {
		return t.n + 1
	}
	return t.n
}

// find returns k's slot, or, when k is absent, where it would go: the
// first slot from its home that is empty or holds a larger rank
// (len(slots) when the run reaches the end). k is not 0.
func (t *keyTable[V]) find(k stream.Key) (i int, found bool) {
	s, m := t.slots, t.mul|1
	// Ranks less one: an empty slot's comes out largest.
	r := uint64(k)*m - 1
	i = t.home(k)
	// Most keys sit within 3 slots of their homes: test the 4 with one
	// branch before the scan.
	if i+3 < len(s) {
		if at := eq(s[i].k, k) | eq(s[i+1].k, k)<<1 | eq(s[i+2].k, k)<<2 | eq(s[i+3].k, k)<<3; at != 0 {
			return i + bits.TrailingZeros8(at), true
		}
	}
	for ; i < len(s); i++ {
		if uint64(s[i].k)*m-1 >= r {
			return i, s[i].k == k
		}
	}
	return i, false
}

// eq is 1 when a == b, else 0.
func eq(a, b stream.Key) uint8 {
	if a == b {
		return 1
	}
	return 0
}

// get returns k's value slot, nil when k is absent.
func (t *keyTable[V]) get(k stream.Key) *V {
	if k == 0 {
		if !t.hasZero {
			return nil
		}
		return &t.zero
	}
	if i, ok := t.find(k); ok {
		return &t.slots[i].v
	}
	return nil
}

// put returns k's value slot, inserting k with the zero value when it
// is absent; had reports that k was present.
func (t *keyTable[V]) put(k stream.Key) (v *V, had bool) {
	if k == 0 {
		had, t.hasZero = t.hasZero, true
		return &t.zero, had
	}
	i, ok := t.find(k)
	if ok {
		return &t.slots[i].v, true
	}
	if 8*(t.n+1) > 7*(len(t.slots)-t.tail) {
		t.reserve(1, k, k)
		i, _ = t.find(k)
	}
	i, p := t.shiftIn(k, i)
	t.n++
	if t.debt = max(0, t.debt+p-insertProbes); t.clustered(t.debt) {
		t.rebuild(len(t.slots), fibonacci, 0, 0)
		i, _ = t.find(k)
	}
	return &t.slots[i].v, false
}

// set stores v under k.
func (t *keyTable[V]) set(k stream.Key, v V) {
	p, _ := t.put(k)
	*p = v
}

// del removes k, reporting whether it was present. The keys behind k
// that sit past their homes shift back one slot each, so no lookup ever
// passes a tombstone and the run stays in order.
func (t *keyTable[V]) del(k stream.Key) bool {
	if k == 0 {
		had := t.hasZero
		t.hasZero, t.zero = false, *new(V)
		return had
	}
	i, ok := t.find(k)
	if !ok {
		return false
	}
	s, j := t.slots, i+1
	for j < len(s) && s[j].k != 0 && t.home(s[j].k) < j {
		j++
	}
	copy(s[i:], s[i+1:j])
	s[j-1] = entry[V]{}
	t.n--
	return true
}

// place puts k, absent, where find says it goes (shiftIn), returning
// its slot and the slots it probed.
func (t *keyTable[V]) place(k stream.Key) (i, probes int) {
	i, _ = t.find(k)
	return t.shiftIn(k, i)
}

// shiftIn puts k, absent, in slot i — the one find returned — shifting
// the rest of its run right by one, and returns i and the slots probed
// from k's home to the end of the run. A run that reaches the end of the
// array doubles the tail first.
func (t *keyTable[V]) shiftIn(k stream.Key, i int) (int, int) {
	s, e := t.slots, i
	for e < len(s) && s[e].k != 0 {
		e++
	}
	if grow := max(t.tail, 4); e == len(s) {
		t.slots, t.tail = append(make([]entry[V], 0, len(s)+grow), s...)[:len(s)+grow], t.tail+grow
		s = t.slots
	}
	copy(s[i+1:e+1], s[i:e])
	s[i] = entry[V]{k: k}
	return i, e - t.home(k) + 1
}

// rebuild moves every key into a fresh array of n slots, the last
// thirty-second of them, at most 64, a tail, and ranks them by
// k·(mul|1); it returns the slots the moves probed. Ranked by
// themselves, the keys spread their homes over the range from the least
// of them and lo to the largest of them and hi: the multiplier is the
// largest that puts the range's top at the last home, or, for a range
// narrower than the homes, 2^64−1, a home a rank. Keys that come in rank order
// each land at their home or just past the key before, so the moves
// probe what the keys' displacements add up to. Keys ranked by
// themselves that turn out clustered are hashed instead.
func (t *keyTable[V]) rebuild(n int, mul, lo, hi uint64) (probes int) {
	old := *t
	*t = keyTable[V]{slots: make([]entry[V], n), zero: old.zero, hasZero: old.hasZero, tail: min(n/32, 64), mul: mul}
	for _, e := range old.slots {
		if e.k != 0 {
			lo, hi = min(lo, uint64(e.k)), max(hi, uint64(e.k))
		}
	}
	if homes := uint64(n - t.tail); mul == 0 && lo <= hi {
		m, _ := bits.Div64(homes-1, ^uint64(0), max(hi-lo, homes))
		t.lo, t.cut, t.c = lo, ^(hi - lo), m-homes
	}
	next := 0 // the slot after the last key placed
	for _, e := range old.slots {
		if e.k == 0 {
			continue
		}
		h := t.home(e.k)
		i := max(next, h)
		if old.mul != mul || i == len(t.slots) { // out of rank order, or past the tail
			i, _ = t.place(e.k)
		}
		t.slots[i] = e
		if next, t.n, probes = i+1, t.n+1, probes+i-h+1; t.clustered(probes) {
			*t = old
			return t.rebuild(n, fibonacci, 0, 0)
		}
	}
	return probes
}

// reserve makes room for n more keys, among them lo and hi, growing by
// at least half so a sequence of reserves stays linear.
func (t *keyTable[V]) reserve(n int, lo, hi stream.Key) {
	if 8*(t.n+n) > 7*(len(t.slots)-t.tail) {
		t.rebuild(slotsFor(t.n+max(n, t.n/2)), t.mul, uint64(lo), uint64(hi))
	}
}

// compact rebuilds the array sized for the keys held, so the slots a
// mass deletion freed return to the allocator; it returns the slots the
// rebuild probed. An emptied table is the zero table, its keys ranked by
// themselves again.
func (t *keyTable[V]) compact() (probes int) {
	if t.n == 0 {
		*t = keyTable[V]{zero: t.zero, hasZero: t.hasZero}
		return 0
	}
	return t.rebuild(slotsFor(t.n), t.mul, ^uint64(0), 0)
}

// inOrder returns the table's entries in key order: its own slots, empty
// ones (key 0) among them, while the rank is the key, else a sorted copy.
// Key 0's value is not among them.
func (t *keyTable[V]) inOrder() []entry[V] {
	if t.mul == 0 {
		return t.slots
	}
	es := make([]entry[V], 0, t.n)
	for _, e := range t.slots {
		if e.k != 0 {
			es = append(es, e)
		}
	}
	return radixSort(es)
}

// all yields every key with its value slot in slot order, keys ascending
// while the rank is the key. The table must not change during the walk.
func (t *keyTable[V]) all(yield func(stream.Key, *V) bool) { t.walk(t.slots, yield) }

// ascending is all with the keys ascending: a table whose keys clustered
// walks a sorted copy.
func (t *keyTable[V]) ascending(yield func(stream.Key, *V) bool) { t.walk(t.inOrder(), yield) }

func (t *keyTable[V]) walk(es []entry[V], yield func(stream.Key, *V) bool) {
	if t.hasZero && !yield(0, &t.zero) {
		return
	}
	for i := range es {
		if e := &es[i]; e.k != 0 && !yield(e.k, &e.v) {
			return
		}
	}
}

// sorted returns inOrder's entries and the keys held, ascending.
func (t *keyTable[V]) sorted() ([]entry[V], []stream.Key) {
	es := t.inOrder()
	// Key 0, when held, leads: keys[0] is 0 already. The walk is free of
	// branches: an empty slot's key is written over by the next key.
	keys, j := make([]stream.Key, t.size()+1), t.size()-t.n
	for _, e := range es {
		keys[j] = e.k
		j += int(1 - eq(e.k, 0))
	}
	return es, keys[:j:j]
}
