package state

import (
	"cmp"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"

	"seep/internal/stream"
)

// Out-of-core managed state: the spill operation of §3.3 ("a spill
// operation can temporarily store state on disk"), wired into the
// Store. When a memory ceiling is armed (EnableSpill), the store tracks
// an approximate resident footprint and, on crossing the ceiling, moves
// cold key ranges — resident keys not accessed since the previous spill
// pass — to disk, in chunk files of one sorted run each, so a later
// point access materialises one small range rather than everything.
// Spilled keys are transparent: any cell access to a spilled key loads
// its chunk back first, full-state operations (snapshot, checkpoint,
// restore, drains, iteration) materialise everything, and delta
// extraction materialises exactly the dirty keys it encodes. The
// disarmed cost on every cell access is one atomic pointer load.
//
// Failure semantics: a failed spill write leaves the keys resident (the
// pass is abandoned, nothing is lost); a failed materialise read records
// the error, which then fails the next snapshot/checkpoint — state is
// never dropped silently, the node's previous backup stays
// authoritative.

const (
	// spillCheckEvery throttles ceiling checks to one per this many
	// writes, so the steady-state write path pays a counter increment.
	spillCheckEvery = 1024
	// spillChunkKeys bounds the keys per spill file: the unit a point
	// access on a spilled key loads back.
	spillChunkKeys = 4096
	// spillLowWaterNum/Den: a pass spills down to 7/10 of the ceiling,
	// so passes stay rare relative to growth.
	spillLowWaterNum, spillLowWaterDen = 7, 10
	// spillEstFloor is the minimum assumed in-memory bytes per key.
	spillEstFloor = 64
	// spillOverhead scales encoded bytes to approximate in-memory cost
	// (table slots, boxed values, key overhead).
	spillOverhead = 3
)

// SpillStats is the spill observability surface.
type SpillStats struct {
	// SpilledKeys is the gauge: keys currently on disk.
	SpilledKeys uint64
	// Spills counts completed spill passes.
	Spills uint64
	// SpilledTotal counts keys written to disk, cumulatively.
	SpilledTotal uint64
	// Loads counts keys materialised back from disk, cumulatively.
	Loads uint64
}

// Add folds other into s (metric aggregation across instances).
func (s *SpillStats) Add(o SpillStats) {
	s.SpilledKeys += o.SpilledKeys
	s.Spills += o.Spills
	s.SpilledTotal += o.SpilledTotal
	s.Loads += o.Loads
}

// storeSpill is the armed spill state, reachable from the store through
// one atomic pointer. All fields are guarded by the store lock.
type storeSpill struct {
	// dir holds the chunk files; the store created it when ownDir.
	dir    string
	ownDir bool
	// chunks maps each chunk file's name to the key range it holds;
	// next numbers the next file.
	chunks map[string]KeyRange
	next   int
	limit  int64
	// est is the approximate in-memory bytes per resident key, refined
	// from the encoded sizes each pass observes.
	est        int64
	sinceCheck int
	// recent holds the keys accessed since the last spill pass — the
	// coldness signal. Cleared each pass.
	recent keyTable[struct{}]
	// spilled holds every key currently on disk.
	spilled keyTable[struct{}]

	passes       uint64
	spilledTotal uint64
	loadedTotal  uint64
	lastErr      error
}

// EnableSpill arms a memory ceiling on the store: when the approximate
// resident footprint exceeds limitBytes, cold key ranges spill to disk
// under dir (empty = a fresh temp directory owned by the store) and
// materialise transparently on access. The ceiling is approximate — it
// is tracked as resident keys times an estimated per-key footprint
// learned from spilled data — and bounds steady-state growth, not the
// transient of a full checkpoint, which materialises everything.
func (s *Store) EnableSpill(dir string, limitBytes int64) error {
	if limitBytes <= 0 {
		return fmt.Errorf("state: EnableSpill requires a positive byte limit, got %d", limitBytes)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.spill.Load() != nil {
		return errors.New("state: spill already enabled")
	}
	ownDir := dir == ""
	var err error
	if ownDir {
		dir, err = os.MkdirTemp("", "seep-spill-")
	} else {
		err = os.MkdirAll(dir, 0o755)
	}
	if err != nil {
		return fmt.Errorf("state: create spill dir: %w", err)
	}
	s.spill.Store(&storeSpill{
		dir:    dir,
		ownDir: ownDir,
		chunks: make(map[string]KeyRange),
		limit:  limitBytes,
		est:    spillOverhead * spillEstFloor,
	})
	return nil
}

// CloseSpill disarms spilling and removes every spill file (and the
// scratch directory, when the store created it). Spilled keys still on
// disk are materialised first so no state is lost.
func (s *Store) CloseSpill() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	sp := s.spill.Load()
	if sp == nil {
		return nil
	}
	err := sp.loadAllLocked(s)
	s.spill.Store(nil)
	err = cmp.Or(err, sp.removeChunksLocked())
	if sp.ownDir {
		err = cmp.Or(err, os.RemoveAll(sp.dir))
	}
	return err
}

// SpillStats returns the spill counters (zero when disarmed).
func (s *Store) SpillStats() SpillStats {
	sp := s.spill.Load()
	if sp == nil {
		return SpillStats{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return SpillStats{
		SpilledKeys:  uint64(sp.spilled.size()),
		Spills:       sp.passes,
		SpilledTotal: sp.spilledTotal,
		Loads:        sp.loadedTotal,
	}
}

// SpillErr returns the first spill I/O error recorded on an access path
// (accessors cannot report errors themselves; the error also fails the
// next snapshot/checkpoint).
func (s *Store) SpillErr() error {
	if s.spill.Load() == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if sp := s.spill.Load(); sp != nil {
		return sp.lastErr
	}
	return nil
}

// residentLocked makes k's state resident before a cell accesses it,
// loading its spill chunk when k is on disk. One atomic load when
// spilling is disarmed.
func (s *Store) residentLocked(k stream.Key) {
	if sp := s.spill.Load(); sp != nil {
		sp.ensureLocked(s, k)
	}
}

// materializeAllLocked loads every spilled key back (full-state
// operations: snapshot, iteration, drain, restore).
func (s *Store) materializeAllLocked() error {
	sp := s.spill.Load()
	if sp == nil {
		return nil
	}
	if err := sp.loadAllLocked(s); err != nil {
		return err
	}
	return sp.lastErr
}

// spillNoteWriteLocked is the write-path hook: every spillCheckEvery
// writes it compares the approximate footprint against the ceiling and
// runs a spill pass when exceeded.
func (s *Store) spillNoteWriteLocked() {
	sp := s.spill.Load()
	if sp == nil {
		return
	}
	sp.sinceCheck++
	if sp.sinceCheck < spillCheckEvery {
		return
	}
	sp.sinceCheck = 0
	resident := int64(s.residentLenLocked())
	if resident*sp.est > sp.limit {
		sp.passLocked(s, resident)
	}
}

// residentLenLocked approximates the resident key count as the sum of
// per-cell key counts (an upper bound when cells share keys) — O(cells),
// cheap enough for the throttled ceiling check.
func (s *Store) residentLenLocked() int {
	n := 0
	for _, c := range s.cells {
		n += c.lenLocked()
	}
	return n
}

// ensureLocked materialises the chunk holding k when k is spilled, and
// records the access for the coldness signal.
func (sp *storeSpill) ensureLocked(s *Store, k stream.Key) {
	sp.recent.put(k)
	if sp.spilled.get(k) != nil {
		sp.loadLocked(s, KeyRange{Lo: k, Hi: k})
	}
}

// loadAllLocked materialises everything on disk.
func (sp *storeSpill) loadAllLocked(s *Store) error {
	if sp.spilled.size() == 0 {
		return nil
	}
	return sp.loadLocked(s, FullRange)
}

// loadLocked reads the chunks overlapping r back, installs their
// records in the cells and removes their files. A chunk that cannot be
// read or decoded stops the load; what was read before it stays
// installed. The first error is recorded and returned.
func (sp *storeSpill) loadLocked(s *Store, r KeyRange) error {
	var err error
	for name, cr := range sp.chunks {
		if cr.Lo > r.Hi || cr.Hi < r.Lo {
			continue // no overlap
		}
		run, rerr := sp.readLocked(name)
		if rerr != nil {
			err = cmp.Or(err, rerr)
			break
		}
		delete(sp.chunks, name)
		for k := range run.Keys() {
			sp.spilled.del(k)
		}
		err = cmp.Or(err, s.installLocked(run))
		sp.loadedTotal += uint64(run.Len())
		if rerr := os.Remove(filepath.Join(sp.dir, name)); rerr != nil {
			err = cmp.Or(err, fmt.Errorf("state: remove spill file: %w", rerr))
		}
	}
	if err != nil {
		sp.lastErr = err
	}
	return err
}

// writeLocked writes run to a new chunk file — the run as a processing
// section carries it: its cell table, its entry count, then its records
// as they are — indexed under r, the key range a load finds it by.
func (sp *storeSpill) writeLocked(run Run, r KeyRange) error {
	e := stream.NewEncoder(run.Size())
	run.encode(e)
	sp.next++
	name := fmt.Sprintf("spill-%06d.bin", sp.next)
	if err := os.WriteFile(filepath.Join(sp.dir, name), e.Bytes(), 0o644); err != nil {
		return fmt.Errorf("state: write spill file: %w", err)
	}
	sp.chunks[name] = r
	return nil
}

// readLocked reads and decodes chunk file name.
func (sp *storeSpill) readLocked(name string) (Run, error) {
	b, err := os.ReadFile(filepath.Join(sp.dir, name))
	if err != nil {
		return Run{}, fmt.Errorf("state: read spill file: %w", err)
	}
	run, err := decodeRun(stream.NewDecoder(b))
	if err != nil {
		return Run{}, fmt.Errorf("state: corrupt spill file %s: %w", name, err)
	}
	return run, nil
}

// removeChunksLocked removes every chunk file, returning the first
// error.
func (sp *storeSpill) removeChunksLocked() error {
	var err error
	for name := range sp.chunks {
		err = cmp.Or(err, os.Remove(filepath.Join(sp.dir, name)))
	}
	clear(sp.chunks)
	return err
}

// passLocked runs one spill pass: pick cold keys (clean before dirty,
// so incremental checkpoints rarely have to load a spilled key back;
// every key is clean while the store tracks none),
// capture and spill them in chunk-sized sorted runs until the target
// footprint is reached, drop them from the cells, compact the cell
// tables so the freed slots return to the allocator, and reset the
// coldness signal.
func (sp *storeSpill) passLocked(s *Store, resident int64) {
	target := sp.limit * spillLowWaterNum / spillLowWaterDen / sp.est
	want := int(resident - target)
	if want <= 0 {
		return
	}
	var clean, dirty []stream.Key // ascending, as keysLocked yields them
	for _, k := range s.keysLocked() {
		if sp.recent.get(k) != nil {
			continue
		}
		if s.touched != nil && s.touched.get(k) != nil {
			dirty = append(dirty, k)
		} else {
			clean = append(clean, k)
		}
	}
	// Everything is hot: reset the recency window so the next pass has
	// candidates, and let the footprint overshoot until then.
	if len(clean)+len(dirty) == 0 {
		sp.recent = keyTable[struct{}]{}
		return
	}

	var spilledKeys, spilledBytes int64
	spillChunks := func(cand []stream.Key) {
		for len(cand) > 0 && int(spilledKeys) < want {
			chunk := cand[:min(len(cand), spillChunkKeys)]
			cand = cand[len(chunk):]
			r := KeyRange{Lo: chunk[0], Hi: chunk[len(chunk)-1]}
			run, _, err := s.captureKeysLocked(chunk)
			if err == nil {
				err = sp.writeLocked(run, r)
			}
			if err != nil {
				// Failed encode or write: abandon the pass, keys stay
				// resident.
				sp.lastErr = err
				return
			}
			for k := range run.Keys() {
				sp.spilled.put(k)
				s.deleteKeyLocked(k)
			}
			spilledKeys += int64(run.Len())
			spilledBytes += int64(run.Size() - 8*run.Len())
		}
	}
	spillChunks(clean)
	spillChunks(dirty)
	if spilledKeys == 0 {
		return
	}
	for _, c := range s.cells {
		c.compactLocked()
	}
	// Refine the per-key footprint estimate from what this pass actually
	// encoded (EMA, floored).
	observed := spillOverhead * spilledBytes / spilledKeys
	if observed < spillEstFloor {
		observed = spillEstFloor
	}
	sp.est = (sp.est + observed) / 2
	sp.passes++
	sp.spilledTotal += uint64(spilledKeys)
	sp.recent = keyTable[struct{}]{}
}

// discardLocked drops everything on disk WITHOUT loading it back —
// Restore replaces the whole store contents, so spilled fragments of
// the old state must not resurrect.
func (sp *storeSpill) discardLocked() {
	sp.removeChunksLocked()
	sp.spilled = keyTable[struct{}]{}
	sp.recent = keyTable[struct{}]{}
	sp.sinceCheck = 0
}

// deleteKeyLocked drops k from every cell without touching dirty-key
// tracking (spilling is not a semantic delete).
func (s *Store) deleteKeyLocked(k stream.Key) {
	for _, c := range s.cells {
		c.deleteKeyLocked(k)
	}
}

// spillPtr is the store's atomic arm/disarm switch, declared here so
// store.go stays focused on the cell machinery.
type spillPtr = atomic.Pointer[storeSpill]
