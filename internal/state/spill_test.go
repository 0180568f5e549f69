package state

import (
	"testing"
)

// spillRange moves p's keys inside r to disk, leaving p with the rest,
// and returns how many moved.
func spillRange(t *testing.T, s *Spiller, p *Processing, r KeyRange) int {
	t.Helper()
	chunk := p.KV.Range(r)
	if err := s.Spill(chunk, r); err != nil {
		t.Fatal(err)
	}
	var rest RunBuilder
	for k, v := range p.KV.All() {
		if !r.Contains(k) {
			rest.Append(k, v)
		}
	}
	p.KV = rest.Run()
	return chunk.Len()
}

// materializeRange loads the chunks overlapping r back into p and
// returns how many keys they held.
func materializeRange(t *testing.T, s *Spiller, p *Processing, r KeyRange) int {
	t.Helper()
	runs, err := s.Materialize(r)
	if err != nil {
		t.Fatal(err)
	}
	merged, err := mergeRuns(append(runs, p.KV))
	if err != nil {
		t.Fatal(err)
	}
	n := merged.Len() - p.Len()
	p.KV = merged
	return n
}

func TestSpillerRoundTrip(t *testing.T) {
	s, err := NewSpiller(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	p := mkProcessing(100, 11)
	orig := p.Clone()
	half := FullRange.SplitEven(2)

	nSpilled := spillRange(t, s, p, half[0])
	if nSpilled == 0 {
		t.Fatal("nothing spilled; seed produced no low keys?")
	}
	if p.Len()+nSpilled != orig.Len() {
		t.Errorf("in-memory %d + spilled %d != original %d", p.Len(), nSpilled, orig.Len())
	}
	if got := s.SpilledRanges(); len(got) != 1 || got[0] != half[0] {
		t.Errorf("SpilledRanges = %v", got)
	}

	if nLoaded := materializeRange(t, s, p, half[0]); nLoaded != nSpilled {
		t.Errorf("loaded %d, spilled %d", nLoaded, nSpilled)
	}
	if !p.Equal(orig) {
		t.Error("spill+materialize changed state")
	}
	if len(s.SpilledRanges()) != 0 {
		t.Error("ranges remain after materialize")
	}
}

func TestSpillerNonOverlappingMaterialize(t *testing.T) {
	s, err := NewSpiller(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	p := mkProcessing(50, 12)
	quarters := FullRange.SplitEven(4)
	spillRange(t, s, p, quarters[0])
	// Materializing a disjoint range loads nothing.
	if n := materializeRange(t, s, p, quarters[3]); n != 0 {
		t.Errorf("materialized %d keys from disjoint range", n)
	}
	if len(s.SpilledRanges()) != 1 {
		t.Error("spilled range should remain")
	}
}

func TestSpillerEmptyRange(t *testing.T) {
	s, err := NewSpiller(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	p := NewProcessing(1)
	if err := s.Spill(p.KV, FullRange); err != nil || len(s.SpilledRanges()) != 0 {
		t.Errorf("Spill empty state = %v, ranges %v", err, s.SpilledRanges())
	}
}

func TestSpillerClose(t *testing.T) {
	dir := t.TempDir()
	s, err := NewSpiller(dir)
	if err != nil {
		t.Fatal(err)
	}
	p := mkProcessing(20, 13)
	spillRange(t, s, p, FullRange)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if len(s.SpilledRanges()) != 0 {
		t.Error("Close should drop all spilled ranges")
	}
}

func TestSpillerMultipleRanges(t *testing.T) {
	s, err := NewSpiller(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	p := mkProcessing(200, 14)
	orig := p.Clone()
	quarters := FullRange.SplitEven(4)
	for _, q := range quarters[:3] {
		spillRange(t, s, p, q)
	}
	// Materialize everything via the full range.
	materializeRange(t, s, p, FullRange)
	if !p.Equal(orig) {
		t.Error("multi-range spill+materialize changed state")
	}
}
