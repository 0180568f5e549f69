package state

import (
	"math/bits"

	"seep/internal/stream"
)

// keyTable is the one representation of key-indexed data in this
// package — every cell's values, the dirty-key set, the spill sets: an
// open-addressing hash table from stream.Key to V. Keys and values sit
// side by side in one slot array, the value first as in entry[V], so a
// set (V = struct{}) costs 8 bytes a slot. A key probes linearly from
// its home slot, and a delete shifts the probe run behind it back
// rather than leaving a tombstone. Key 0 marks an empty slot, so its
// value is kept beside the array.
//
// The table grows by half when more than 7/8 of its slots would be
// full, so an int64 cell costs 18–28 bytes a key at every size; a
// resize briefly holds both arrays, 2.5× the old one. A pointer a
// method returns stays valid until the next insert or delete. The zero
// table is empty and ready to use.
type keyTable[V any] struct {
	slots   []entry[V]
	n       int // keys held in slots
	zero    V   // key 0's value, when hasZero
	hasZero bool
}

// keyTableMinSlots is the array a table's first insert allocates.
const keyTableMinSlots = 8

// home is k's home slot among n: the high word of a multiplicative
// (Fibonacci) hash of k times n, so homes ascend with the hash.
func home(k stream.Key, n int) int {
	hi, _ := bits.Mul64(uint64(k)*0x9e3779b97f4a7c15, uint64(n))
	return int(hi)
}

// slotsFor is the fewest slots that hold n keys at no more than 7/8
// load.
func slotsFor(n int) int {
	return max(keyTableMinSlots, (8*n+6)/7)
}

// size returns the number of keys held.
func (t *keyTable[V]) size() int {
	if t.hasZero {
		return t.n + 1
	}
	return t.n
}

// find returns k's slot, or the empty slot that ends its probe run
// when k is absent (slot 0 of a table without slots). k is not 0.
func (t *keyTable[V]) find(k stream.Key) (i int, found bool) {
	s := t.slots
	if len(s) == 0 {
		return 0, false
	}
	for i = home(k, len(s)); s[i].k != k; {
		if s[i].k == 0 {
			return i, false
		}
		if i++; i == len(s) {
			i = 0
		}
	}
	return i, true
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
	if 8*(t.n+1) > 7*len(t.slots) {
		t.reserve(1)
		i, _ = t.find(k)
	}
	t.slots[i].k = k
	t.n++
	return &t.slots[i].v, false
}

// set stores v under k.
func (t *keyTable[V]) set(k stream.Key, v V) {
	p, _ := t.put(k)
	*p = v
}

// del removes k, reporting whether it was present. The probe run behind
// k shifts back over the hole, so no lookup ever passes a tombstone.
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
	// i is the hole. A later key of the run moves into it unless its
	// home lies cyclically in (i, j], past the hole.
	s := t.slots
	for j := i; ; {
		if j++; j == len(s) {
			j = 0
		}
		if s[j].k == 0 {
			break
		}
		h := home(s[j].k, len(s))
		if i < j && (h <= i || h > j) || j < i && h <= i && h > j {
			s[i], i = s[j], j
		}
	}
	s[i] = entry[V]{}
	t.n--
	return true
}

// place puts k, absent, in the first free slot from its home, returning
// the slot and the slots it probed. The table must have room.
func (t *keyTable[V]) place(k stream.Key) (i, probes int) {
	s := t.slots
	for i = home(k, len(s)); s[i].k != 0; probes++ {
		if i++; i == len(s) {
			i = 0
		}
	}
	s[i].k = k
	return i, probes + 1
}

// resize moves every key into a fresh array of n slots, returning the
// slots the moves probed. Homes ascend with the hash at every size, so
// moving keys in slot order fills the new array front to back: each
// move probes about as far as a fresh insert would.
func (t *keyTable[V]) resize(n int) (probes int) {
	old := t.slots
	t.slots = make([]entry[V], n)
	for _, e := range old {
		if e.k != 0 {
			i, p := t.place(e.k)
			t.slots[i].v = e.v
			probes += p
		}
	}
	return probes
}

// reserve makes room for n more keys, growing by at least half so a
// sequence of reserves stays linear.
func (t *keyTable[V]) reserve(n int) {
	if want := slotsFor(t.n + n); want > len(t.slots) {
		t.resize(max(want, len(t.slots)+len(t.slots)/2))
	}
}

// compact rebuilds the array sized for the keys held, so the slots a
// mass deletion freed return to the allocator; it returns the slots the
// rebuild probed.
func (t *keyTable[V]) compact() (probes int) {
	if t.n == 0 {
		t.slots = nil
		return 0
	}
	return t.resize(slotsFor(t.n))
}

// all yields every key with its value slot, in slot order — key 0
// first. The table must not change during the walk.
func (t *keyTable[V]) all(yield func(stream.Key, *V) bool) {
	if t.hasZero && !yield(0, &t.zero) {
		return
	}
	for i := range t.slots {
		if e := &t.slots[i]; e.k != 0 && !yield(e.k, &e.v) {
			return
		}
	}
}

// sorted returns the table's entries ordered by key, and their keys
// beside them.
func (t *keyTable[V]) sorted() ([]entry[V], []stream.Key) {
	es := make([]entry[V], 0, t.size())
	for k, v := range t.all {
		es = append(es, entry[V]{*v, k})
	}
	es = radixSort(es)
	keys := make([]stream.Key, len(es))
	for i, e := range es {
		keys[i] = e.k
	}
	return es, keys
}
