// Managed keyed state: the operator-state contract. Operators declare
// typed state cells (Value[T], Map[T]) against a Store; the Store owns
// locking, serialisation, deep-copy snapshots, restore, and — because
// every mutation passes through it — the dirty-key tracking that makes
// incremental checkpoints (§3.2) possible without operator cooperation.
//
// State remains key/value pairs over the tuple key space on the wire, so
// the partition/merge primitives of Algorithm 2 keep working unchanged:
// a Store's checkpoint is one sorted Run that can be split by key range,
// shipped, and restored into a fresh Store on another instance.
package state

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync"

	"seep/internal/stream"
)

// Store holds the managed keyed state of one operator instance. Cells are
// registered at operator construction (NewValue/NewMap); all access goes
// through cell methods, which serialise on the store's lock — operators
// built on a Store need no mutex of their own, on either substrate.
//
// Each cell method call is atomic. Mutations that must be atomic as a
// unit (read-modify-write) should use the cells' Update methods, whose
// callbacks run under the store lock; such callbacks must not call back
// into any cell of the same store.
type Store struct {
	mu     sync.Mutex
	cells  []storeCell
	byName map[string]storeCell
	// names is the cells' names in registration order: the cell table
	// of every run the store captures.
	names []string
	// touched holds the keys written or deleted since the last full
	// checkpoint or delta — the raw material of a delta. It is nil after
	// a full checkpoint a runtime taking no deltas asked for
	// (takeCheckpoint), so writes then skip it.
	touched *keyTable[struct{}]
	// lastFullSize is the encoded size of the last full checkpoint: the
	// baseline for maxDeltaFraction, and the room the next one starts
	// with when values are not of fixed width.
	lastFullSize int
	// deltasSinceFull counts the deltas taken since the last full
	// checkpoint or Restore, which fullEvery bounds.
	deltasSinceFull int
	// spill, when armed (EnableSpill), moves cold key ranges to disk
	// under a memory ceiling; nil when disarmed, so the steady-state
	// access path pays one atomic pointer load (spill_store.go).
	spill spillPtr
}

// NewStore returns an empty store ready for cell registration.
func NewStore() *Store {
	return &Store{
		byName:  make(map[string]storeCell),
		touched: new(keyTable[struct{}]),
	}
}

// storeCell is the store's view of one registered cell. All methods are
// called with the store lock held.
type storeCell interface {
	cellName() string
	// width is the byte length of every value the cell encodes, or -1
	// when values vary in length.
	width() int
	// lookupLocked returns the cell's fragSource for a capture of given
	// keys, which looks each one up.
	lookupLocked() fragSource
	// sortedLocked walks the cell's table once and returns its keys,
	// ascending, with the fragSource of a full capture, which reads the
	// walked entries in that order instead of looking keys up.
	sortedLocked() ([]stream.Key, fragSource)
	// reserveLocked makes room for n more keys from lo to hi, so a
	// restore sizes the cell once, its homes spread over the run's keys,
	// rather than growing it key by key.
	reserveLocked(n int, lo, hi stream.Key)
	// decodeLocked installs a fragment previously produced by a
	// fragSource.
	decodeLocked(k stream.Key, b []byte) error
	// resetLocked drops all data.
	resetLocked()
	// lenLocked returns the number of keys the cell holds.
	lenLocked() int
	// deleteKeyLocked drops k without any dirty-key side effect (used by
	// spilling, which is not a semantic delete).
	deleteKeyLocked(k stream.Key)
	// compactLocked rebuilds the cell's table for the keys it holds, so
	// slots freed by a mass deletion (a spill pass) return to the
	// allocator.
	compactLocked()
}

// fragSource appends one cell's value under k — its encoding, without
// the length the capture puts in front — to dst; ok=false, and dst comes
// back as it was, when the cell holds nothing under k. A capture asks
// for its keys in ascending order.
type fragSource func(dst []byte, k stream.Key) (out []byte, ok bool, err error)

// register binds a cell to the store. Cell names must be unique and
// non-empty; violations are programming errors and panic.
func (s *Store) register(c storeCell) {
	s.mu.Lock()
	defer s.mu.Unlock()
	name := c.cellName()
	if name == "" {
		panic("state: cell with empty name")
	}
	if _, dup := s.byName[name]; dup {
		panic(fmt.Sprintf("state: duplicate cell %q", name))
	}
	if len(s.cells) == maxCells {
		panic(fmt.Sprintf("state: cell %q past the %d a store holds", name, maxCells))
	}
	s.byName[name] = c
	s.cells = append(s.cells, c)
	s.names = append(s.names, name)
}

// touchLocked records that the state under k changed (write or delete).
func (s *Store) touchLocked(k stream.Key) {
	if s.touched != nil {
		s.touched.put(k)
	}
	s.spillNoteWriteLocked()
}

// sortedLocked returns every key held by any cell, ascending — the union
// of the cells' sorted keys — with each cell's fragSource for a full
// capture and the bytes the records take (bodyBytes), exact when every
// value is of fixed width.
func (s *Store) sortedLocked() (keys []stream.Key, srcs []fragSource, body int, exact bool) {
	lists, srcs := make([][]stream.Key, len(s.cells)), make([]fragSource, len(s.cells))
	for i, c := range s.cells {
		lists[i], srcs[i] = c.sortedLocked()
	}
	keys = unionKeys(lists)
	body, exact = s.bodyBytes(len(keys), func(i int) int { return len(lists[i]) })
	return keys, srcs, body, exact
}

// bodyBytes is what records of keys keys take, held[i] of them by cell
// i: per record the key, a one-byte length and mask, per value its
// one-byte length and the value, 8 bytes when its width is not fixed.
// exact reports that the figure is the records' length to the byte:
// every width is fixed and every length and mask fits one byte.
func (s *Store) bodyBytes(keys int, held func(i int) int) (body int, exact bool) {
	body, exact = 10*keys, len(s.cells) < 8
	record := 1
	for i, c := range s.cells {
		w := c.width()
		if w < 0 || w >= 0x80 {
			w, exact = 8, false
		}
		body += held(i) * (1 + w)
		record += 1 + w
	}
	return body, exact && record < 0x80
}

// keysLocked returns every key held by any cell, ascending.
func (s *Store) keysLocked() []stream.Key {
	keys, _, _, _ := s.sortedLocked()
	return keys
}

// beginFrag appends a length-prefixed name and reserves the 32-bit
// length of the bytes the caller appends next; endFrag, given the mark,
// fills that length in.
func beginFrag(dst []byte, name string) ([]byte, int) {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(name)))
	dst = append(dst, name...)
	dst = append(dst, 0, 0, 0, 0)
	return dst, len(dst)
}

func endFrag(dst []byte, mark int) []byte {
	binary.LittleEndian.PutUint32(dst[mark-4:], uint32(len(dst)-mark))
	return dst
}

// captureLocked encodes the state under keys (ascending, distinct) into
// one run over the store's cell table, srcs[i] appending cell i's values
// straight into its body, which starts with bodyHint bytes of room. A
// record is the per-key union of the cells' values: the mask of cells
// holding one, then each value behind its length, in registration
// order. Lengths and masks are written as one byte and widened in place
// when they need more. Keys no cell holds come back in absent; a body
// past maxRunBody is an error.
func (s *Store) captureLocked(keys []stream.Key, srcs []fragSource, bodyHint int) (run Run, absent []stream.Key, err error) {
	b := RunBuilder{r: Run{
		cells: s.names,
		off:   make([]uint32, 0, len(keys)+1),
		body:  make([]byte, 0, bodyHint),
	}}
	for _, k := range keys {
		b.begin(k)
		head := len(b.r.body)
		b.r.body = append(b.r.body, 0, 0) // the record's length and its mask
		var mask uint64
		for i, src := range srcs {
			at := len(b.r.body)
			b.r.body = append(b.r.body, 0)
			var ok bool
			if b.r.body, ok, err = src(b.r.body, k); err != nil {
				return Run{}, nil, fmt.Errorf("state: cell %q: encode key %d: %w", s.names[i], k, err)
			}
			if !ok {
				b.r.body = b.r.body[:at]
				continue
			}
			l := len(b.r.body) - at - 1
			b.r.body = putUvarint(b.r.body, at, uint64(l))
			mask |= 1 << i
		}
		if mask == 0 {
			b.abort()
			absent = append(absent, k)
			continue
		}
		b.r.body = putUvarint(b.r.body, head+1, mask)
		b.r.body = putUvarint(b.r.body, head, uint64(len(b.r.body)-head-1))
		if len(b.r.body) > maxRunBody {
			return Run{}, nil, fmt.Errorf("state: a capture past %d bytes", maxRunBody)
		}
		b.end()
	}
	return b.Run(), absent, nil
}

// TakeCheckpoint captures the full state as one sorted run — the
// get-processing-state function of §3.1, implemented once by the system
// instead of by every operator. It resets dirty-key tracking (subsequent
// deltas are relative to this checkpoint) and records the run's
// serialised size as the baseline for maxDeltaFraction. On error the
// tracking state is untouched, so a failed checkpoint loses nothing.
func (s *Store) TakeCheckpoint() (Run, error) { return s.takeCheckpoint(true) }

// takeCheckpoint is TakeCheckpoint; track=false stops dirty-key tracking
// until the next TakeCheckpoint or Restore, for a runtime that takes no
// deltas.
func (s *Store) takeCheckpoint(track bool) (Run, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	// Spilled ranges are transparent to checkpointing (§3.3): load them
	// back before observing. A recorded spill I/O error fails the
	// checkpoint here rather than dropping state silently.
	if err := s.materializeAllLocked(); err != nil {
		return Run{}, err
	}
	// Each cell walks its table once, in key order (a table whose keys
	// clustered sorts what it walked); the capture merges the cells'
	// entries, so no key is sorted by comparison or looked up. Fixed-width
	// values size the body exactly, so a backup that keeps the run keeps
	// no slack; others are sized by the last checkpoint's body, plus a
	// sixteenth for growth.
	keys, srcs, body, exact := s.sortedLocked()
	if !exact {
		body = max(body, s.lastFullSize+s.lastFullSize/16)
	}
	run, _, err := s.captureLocked(keys, srcs, body)
	if err != nil {
		return Run{}, err
	}
	s.lastFullSize = run.Size()
	s.deltasSinceFull = 0
	s.touched = nil
	if track {
		s.touched = new(keyTable[struct{}])
	}
	return run, nil
}

// takeDelta extracts a delta's processing state: the records of every
// key touched since the last full checkpoint or delta, and the touched
// keys no cell holds any more (deletions), both ascending. On success
// the dirty-key tracking resets; on error it is untouched. A store that
// stopped tracking at its last full checkpoint has no delta to give.
func (s *Store) takeDelta() (changed Run, deleted []stream.Key, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.touched == nil {
		return Run{}, nil, errors.New("state: no dirty keys tracked since the last full checkpoint")
	}
	_, keys := s.touched.sorted()
	for _, k := range keys {
		// A dirty key can have been spilled since it was written; deltas
		// encode exactly the dirty set, so make it resident first.
		s.residentLocked(k)
	}
	if changed, deleted, err = s.captureKeysLocked(keys); err != nil {
		return Run{}, nil, err
	}
	s.touched = new(keyTable[struct{}])
	s.deltasSinceFull++
	return changed, deleted, nil
}

// TakeDelta is takeDelta as a Delta chaining base to seq at ts. It
// remains only for the callers Delta names.
func (s *Store) TakeDelta(ts stream.TSVector, base, seq uint64) (*Delta, error) {
	changed, deleted, err := s.takeDelta()
	if err != nil {
		return nil, err
	}
	return &Delta{Base: base, Seq: seq, Changed: changed, Deleted: deleted, TS: ts.Clone()}, nil
}

// captureKeysLocked captures the records of keys (ascending, distinct),
// looked up in every cell — a delta's dirty set, a spill chunk. Keys no
// cell holds come back in absent.
func (s *Store) captureKeysLocked(keys []stream.Key) (run Run, absent []stream.Key, err error) {
	srcs := make([]fragSource, len(s.cells))
	for i, c := range s.cells {
		srcs[i] = c.lookupLocked()
	}
	body, _ := s.bodyBytes(len(keys), func(int) int { return len(keys) })
	return s.captureLocked(keys, srcs, body)
}

// Restore replaces the entire store contents with a run produced by
// TakeCheckpoint (set-processing-state, §3.1) — possibly one partitioned
// by key range or merged from siblings. Dirty-key tracking resets; a run
// naming a cell the store lacks, or a value failing to decode, is an
// error (state must never be dropped silently), and leaves the store
// partially restored. The store may hold cells the run does not name.
func (s *Store) Restore(kv Run) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	// The restored snapshot replaces everything: spilled fragments of
	// the old state are discarded, never resurrected.
	if sp := s.spill.Load(); sp != nil {
		sp.discardLocked()
	}
	for _, c := range s.cells {
		c.resetLocked()
	}
	s.touched = new(keyTable[struct{}])
	s.lastFullSize = 0
	s.deltasSinceFull = 0
	return s.installLocked(kv)
}

// installLocked decodes every record of kv into the cells, mapping the
// run's cell table to the store's once and making room in each for the
// run's records before the first.
func (s *Store) installLocked(kv Run) error {
	if kv.Len() > 0 && len(kv.cells) == 0 {
		return fmt.Errorf("state: restore: a run of %d records names no cells", kv.Len())
	}
	var lo, hi stream.Key // the run's keys ascend
	if n := kv.Len(); n > 0 {
		lo, hi = kv.key(0), kv.key(n-1)
	}
	cells := make([]storeCell, len(kv.cells))
	for i, name := range kv.cells {
		c, ok := s.byName[name]
		if !ok {
			return fmt.Errorf("state: restore: unknown cell %q", name)
		}
		cells[i] = c
		c.reserveLocked(kv.Len(), lo, hi)
	}
	var k stream.Key
	install := func(c int, val []byte) error {
		if err := cells[c].decodeLocked(k, val); err != nil {
			return fmt.Errorf("cell %q: %w", kv.cells[c], err)
		}
		return nil
	}
	for i := range kv.Len() {
		k = kv.key(i)
		if err := walkRecord(kv.frag(i), kv.cells, install); err != nil {
			return fmt.Errorf("state: restore key %d: %w", k, err)
		}
	}
	return nil
}

// DirtyCount returns the number of keys touched since the last full
// checkpoint or delta (0 while tracking is stopped).
func (s *Store) DirtyCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.touched == nil {
		return 0
	}
	return s.touched.size()
}

// LastFullSize returns the serialised size of the last TakeCheckpoint
// (0 before the first, or after Restore).
func (s *Store) LastFullSize() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastFullSize
}

// DeltasSinceFull returns the number of deltas extracted since the last
// TakeCheckpoint (0 before the first, or after Restore).
func (s *Store) DeltasSinceFull() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.deltasSinceFull
}

// Len returns the number of distinct keys held by any cell (including
// spilled keys, which are loaded back to be counted).
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.materializeAllLocked()
	return len(s.keysLocked())
}

// Keys returns every key held by any cell, ascending.
func (s *Store) Keys() []stream.Key {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.materializeAllLocked()
	return s.keysLocked()
}

// --- typed cells ---

// cell is one registered state cell: a V per tuple key in one key
// table, and the value's encoding. It is the one storeCell; Value and
// Map are cells that add their accessors.
type cell[V any] struct {
	s     *Store
	nm    string
	data  keyTable[V]
	fixed int // every encoded value's width, -1 when not fixed
	// enc appends a value's encoding to dst; dec decodes one.
	enc func(dst []byte, v V) ([]byte, error)
	dec func(b []byte) (V, error)
}

// Len returns the number of keys held.
func (c *cell[V]) Len() int {
	c.s.mu.Lock()
	defer c.s.mu.Unlock()
	c.s.materializeAllLocked()
	return c.data.size()
}

// Delete removes the value under k.
func (c *cell[V]) Delete(k stream.Key) {
	c.s.mu.Lock()
	defer c.s.mu.Unlock()
	c.s.residentLocked(k)
	if c.data.del(k) {
		c.s.touchLocked(k)
	}
}

// Drain atomically removes and returns the whole cell contents — the
// tumbling-window flush primitive.
func (c *cell[V]) Drain() map[stream.Key]V {
	c.s.mu.Lock()
	defer c.s.mu.Unlock()
	c.s.materializeAllLocked()
	old := c.data
	c.data = keyTable[V]{}
	out := make(map[stream.Key]V, old.size())
	for k, p := range old.all {
		out[k] = *p
		c.s.touchLocked(k)
	}
	return out
}

func (c *cell[V]) cellName() string { return c.nm }

func (c *cell[V]) width() int { return c.fixed }

// lookupLocked is the fragSource of a capture of given keys: it looks
// each one up.
func (c *cell[V]) lookupLocked() fragSource {
	return func(dst []byte, k stream.Key) ([]byte, bool, error) {
		p := c.data.get(k)
		if p == nil {
			return dst, false, nil
		}
		dst, err := c.enc(dst, *p)
		return dst, true, err
	}
}

// sortedLocked returns the table's keys, sorted, and the fragSource of
// a full capture over the entries in key order. A capture asks for keys
// in ascending order, so only the next entry can match — the entries
// before it are empty slots — and no key is looked up.
func (c *cell[V]) sortedLocked() ([]stream.Key, fragSource) {
	es, keys := c.data.sorted()
	i := 0
	return keys, func(dst []byte, k stream.Key) ([]byte, bool, error) {
		var p *V
		if k == 0 {
			p = c.data.get(0)
		}
		for ; k != 0 && i < len(es) && es[i].k <= k; i++ {
			if es[i].k == k {
				p = &es[i].v
			}
		}
		if p == nil {
			return dst, false, nil
		}
		dst, err := c.enc(dst, *p)
		return dst, true, err
	}
}

func (c *cell[V]) decodeLocked(k stream.Key, b []byte) error {
	v, err := c.dec(b)
	if err != nil {
		return err
	}
	c.data.set(k, v)
	return nil
}

func (c *cell[V]) reserveLocked(n int, lo, hi stream.Key) { c.data.reserve(n, lo, hi) }

func (c *cell[V]) resetLocked() { c.data = keyTable[V]{} }

func (c *cell[V]) lenLocked() int { return c.data.size() }

func (c *cell[V]) deleteKeyLocked(k stream.Key) { c.data.del(k) }

func (c *cell[V]) compactLocked() { c.data.compact() }

// Value is a keyed state cell holding one T per tuple key — the managed
// replacement for an operator's map[Key]V plus mutex plus codec.
type Value[T any] struct{ cell[T] }

// NewValue registers a Value cell with the store. A nil codec defaults
// to gob. Cell names identify fragments in snapshots and must be unique
// within the store.
func NewValue[T any](s *Store, name string, codec Codec[T]) *Value[T] {
	if codec == nil {
		codec = GobCodec[T]{}
	}
	v := &Value[T]{cell[T]{s: s, nm: name, fixed: -1, enc: encoder(codec), dec: codec.Decode}}
	if f, ok := codec.(fixedWidth); ok {
		v.fixed = f.width()
	}
	s.register(&v.cell)
	return v
}

// Get returns the value under k (zero value, false when absent). For
// reference types the returned value aliases the stored one: treat it as
// read-only and mutate through Set/Update so changes are tracked.
func (v *Value[T]) Get(k stream.Key) (T, bool) {
	v.s.mu.Lock()
	defer v.s.mu.Unlock()
	v.s.residentLocked(k)
	if p := v.data.get(k); p != nil {
		return *p, true
	}
	var zero T
	return zero, false
}

// Set stores val under k.
func (v *Value[T]) Set(k stream.Key, val T) {
	v.s.mu.Lock()
	defer v.s.mu.Unlock()
	v.s.residentLocked(k)
	v.data.set(k, val)
	v.s.touchLocked(k)
}

// Update atomically replaces the value under k with f(current), passing
// the zero value when absent, and returns the new value. f runs under
// the store lock and must not access any cell of the same store.
func (v *Value[T]) Update(k stream.Key, f func(T) T) T {
	v.s.mu.Lock()
	defer v.s.mu.Unlock()
	v.s.residentLocked(k)
	p, _ := v.data.put(k)
	nv := f(*p)
	*p = nv
	v.s.touchLocked(k)
	return nv
}

// Transform atomically replaces the value under k with f(current),
// passing the zero value when absent; when f reports keep=false the key
// is deleted instead — an atomic update-or-expire. f runs under the
// store lock and must not access any cell of the same store.
func (v *Value[T]) Transform(k stream.Key, f func(T) (nv T, keep bool)) {
	v.s.mu.Lock()
	defer v.s.mu.Unlock()
	v.s.residentLocked(k)
	p := v.data.get(k)
	if p == nil {
		var zero T
		nv, keep := f(zero)
		if !keep {
			return
		}
		v.data.set(k, nv)
	} else if nv, keep := f(*p); keep {
		*p = nv
	} else {
		v.data.del(k)
	}
	v.s.touchLocked(k)
}

// Keys returns the held keys, ascending.
func (v *Value[T]) Keys() []stream.Key {
	v.s.mu.Lock()
	defer v.s.mu.Unlock()
	v.s.materializeAllLocked()
	_, keys := v.data.sorted()
	return keys
}

// ForEach visits every (key, value) pair in ascending key order. f must
// not access any cell of the same store.
func (v *Value[T]) ForEach(f func(k stream.Key, val T)) {
	v.s.mu.Lock()
	defer v.s.mu.Unlock()
	v.s.materializeAllLocked()
	for k, p := range v.data.ascending {
		f(k, *p)
	}
}

// Map is a keyed state cell holding a string-indexed map of T per tuple
// key — the managed replacement for the map[Key]map[string]V dictionaries
// of counting operators.
type Map[T any] struct {
	cell[map[string]T]
	codec    Codec[T]
	encField func(dst []byte, v T) ([]byte, error) // codec's append encoder
	// fields is encodeFields' scratch for one key's sorted field names.
	fields []string
}

// NewMap registers a Map cell with the store. A nil codec defaults to
// gob.
func NewMap[T any](s *Store, name string, codec Codec[T]) *Map[T] {
	if codec == nil {
		codec = GobCodec[T]{}
	}
	m := &Map[T]{codec: codec, encField: encoder(codec)}
	m.cell = cell[map[string]T]{s: s, nm: name, fixed: -1, enc: m.encodeFields, dec: m.decodeFields}
	s.register(&m.cell)
	return m
}

// Get returns the value under (k, field).
func (m *Map[T]) Get(k stream.Key, field string) (T, bool) {
	m.s.mu.Lock()
	defer m.s.mu.Unlock()
	m.s.residentLocked(k)
	var inner map[string]T
	if p := m.data.get(k); p != nil {
		inner = *p
	}
	val, ok := inner[field]
	return val, ok
}

// Put stores val under (k, field).
func (m *Map[T]) Put(k stream.Key, field string, val T) {
	m.s.mu.Lock()
	defer m.s.mu.Unlock()
	m.s.residentLocked(k)
	m.innerLocked(k)[field] = val
	m.s.touchLocked(k)
}

// Update atomically replaces the value under (k, field) with f(current),
// passing the zero value when absent, and returns the new value. f runs
// under the store lock and must not access any cell of the same store.
func (m *Map[T]) Update(k stream.Key, field string, f func(T) T) T {
	m.s.mu.Lock()
	defer m.s.mu.Unlock()
	m.s.residentLocked(k)
	inner := m.innerLocked(k)
	nv := f(inner[field])
	inner[field] = nv
	m.s.touchLocked(k)
	return nv
}

// innerLocked returns k's field map, inserting an empty one when k is
// absent.
func (m *Map[T]) innerLocked(k stream.Key) map[string]T {
	p, _ := m.data.put(k)
	if *p == nil {
		*p = make(map[string]T)
	}
	return *p
}

// FieldCount returns the total number of (key, field) entries.
func (m *Map[T]) FieldCount() int {
	m.s.mu.Lock()
	defer m.s.mu.Unlock()
	m.s.materializeAllLocked()
	n := 0
	for _, inner := range m.data.all {
		n += len(*inner)
	}
	return n
}

// ForEach visits every (key, field, value) triple, keys ascending and
// fields sorted. f must not access any cell of the same store.
func (m *Map[T]) ForEach(f func(k stream.Key, field string, val T)) {
	m.s.mu.Lock()
	defer m.s.mu.Unlock()
	m.s.materializeAllLocked()
	for k, p := range m.data.ascending {
		inner := *p
		fields := make([]string, 0, len(inner))
		for field := range inner {
			fields = append(fields, field)
		}
		sort.Strings(fields)
		for _, field := range fields {
			f(k, field, inner[field])
		}
	}
}

// encodeFields appends inner's encoding: the field count, then each
// field in sorted order, its name and its value each behind a 32-bit
// length.
func (m *Map[T]) encodeFields(dst []byte, inner map[string]T) ([]byte, error) {
	fields := m.fields[:0]
	for field := range inner {
		fields = append(fields, field)
	}
	sort.Strings(fields)
	m.fields = fields
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(fields)))
	for _, field := range fields {
		var fmark int
		var err error
		dst, fmark = beginFrag(dst, field)
		if dst, err = m.encField(dst, inner[field]); err != nil {
			return dst, err
		}
		endFrag(dst, fmark)
	}
	return dst, nil
}

// decodeFields decodes what encodeFields appends.
func (m *Map[T]) decodeFields(b []byte) (map[string]T, error) {
	d := stream.NewDecoder(b)
	n := int(d.Uint32())
	inner := make(map[string]T, n)
	for i := 0; i < n; i++ {
		field := d.String32()
		frag := d.Bytes32()
		if err := d.Err(); err != nil {
			return nil, err
		}
		val, err := m.codec.Decode(frag)
		if err != nil {
			return nil, err
		}
		inner[field] = val
	}
	return inner, nil
}
