package state

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"seep/internal/stream"
)

// Spiller temporarily moves cold parts of an operator's processing state
// to disk, freeing memory — the spill operation of §3.3 ("a spill
// operation can temporarily store state on disk"). State is spilled and
// fetched at key-range granularity, one sorted Run per chunk file; a
// spilled range is transparent to checkpointing because Materialize
// restores it before a checkpoint is taken.
type Spiller struct {
	mu   sync.Mutex
	dir  string
	next int
	// spilled maps range file names to the key range they hold.
	spilled map[string]KeyRange
}

// NewSpiller creates a spiller writing under dir (a per-operator scratch
// directory). The directory is created if absent.
func NewSpiller(dir string) (*Spiller, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("state: create spill dir: %w", err)
	}
	return &Spiller{dir: dir, spilled: make(map[string]KeyRange)}, nil
}

// Spill writes run to disk as one chunk — the run as a processing
// section carries it: its cell table, its entry count, then its records
// as they are — and records it under r, the key range a later
// Materialize finds it by. An empty run writes nothing.
func (s *Spiller) Spill(run Run, r KeyRange) error {
	if run.Len() == 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	e := stream.NewEncoder(run.Size())
	run.encode(e)
	s.next++
	name := fmt.Sprintf("spill-%06d.bin", s.next)
	if err := os.WriteFile(filepath.Join(s.dir, name), e.Bytes(), 0o644); err != nil {
		return fmt.Errorf("state: write spill file: %w", err)
	}
	s.spilled[name] = r
	return nil
}

// Materialize loads every chunk whose range overlaps r, one run each,
// and deletes the corresponding files.
func (s *Spiller) Materialize(r KeyRange) ([]Run, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var loaded []Run
	for name, sr := range s.spilled {
		if sr.Lo > r.Hi || sr.Hi < r.Lo {
			continue // no overlap
		}
		path := filepath.Join(s.dir, name)
		b, err := os.ReadFile(path)
		if err != nil {
			return loaded, fmt.Errorf("state: read spill file: %w", err)
		}
		run, err := decodeRun(stream.NewDecoder(b))
		if err != nil {
			return loaded, fmt.Errorf("state: corrupt spill file %s: %w", name, err)
		}
		loaded = append(loaded, run)
		if err := os.Remove(path); err != nil {
			return loaded, fmt.Errorf("state: remove spill file: %w", err)
		}
		delete(s.spilled, name)
	}
	return loaded, nil
}

// SpilledRanges returns the key ranges currently on disk.
func (s *Spiller) SpilledRanges() []KeyRange {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]KeyRange, 0, len(s.spilled))
	for _, r := range s.spilled {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Lo < out[j].Lo })
	return out
}

// Close removes all spill files.
func (s *Spiller) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var first error
	for name := range s.spilled {
		if err := os.Remove(filepath.Join(s.dir, name)); err != nil && first == nil {
			first = err
		}
		delete(s.spilled, name)
	}
	return first
}
