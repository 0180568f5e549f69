package controlplane

import (
	"cmp"
	"fmt"
	"slices"

	"seep/internal/core"
	"seep/internal/plan"
)

// InDoubt is a journaled transition with no commit or abort record: the
// coordinator died somewhere between declaring the intent and closing
// it. The reborn coordinator rolls these back through the abort-to-
// recovery path during worker reconciliation.
type InDoubt struct {
	Seq     uint64
	Action  string // "scale-out", "scale-in", "recover"
	Victims []plan.InstanceID
	Pi      int
	// Planned reports that the transition's plan committed to the graph
	// (a RecPlanned landed): the journal's State already reflects the
	// post-plan topology and the plan's checkpoint files are on disk.
	Planned bool
	// Trims are the trim watermarks journaled with the plan; rollback
	// attaches them to the recovery reroute so replay stays exactly-once
	// (see Record.Trims).
	Trims []core.Trim
}

// Replayed is the fold of a journal's records, and what its snapshot
// file holds: the last State with start metadata applied, the in-doubt
// transitions in sequence order, the highest sequence number any record
// used (the successor coordinator numbers its transitions from
// LastSeq+1, so journal sequences stay monotonic across restarts), and
// how many records were folded.
type Replayed struct {
	State   *State
	InDoubt []InDoubt
	LastSeq uint64
	Records int
}

// Replay reads the journal snapshot in dir. A snapshot that fails its
// checks, or one with no deployment snapshot, is an error — there is
// nothing to resume.
func Replay(dir string) (*Replayed, error) {
	r, err := readSnapshot(dir)
	if err != nil {
		return nil, err
	}
	if err := r.check(); err != nil {
		return nil, err
	}
	return r, nil
}

// check refuses a fold with nothing to resume.
func (r *Replayed) check() error {
	if r.State == nil {
		return fmt.Errorf("controlplane: journal has no deployment snapshot (%d records)", r.Records)
	}
	return nil
}

// fold applies one record. It never writes through rec or through a
// State it shares: a State is replaced, not changed in place, so a
// Replayed handed out earlier stays as it was.
func (r *Replayed) fold(rec *Record) {
	r.Records++
	r.LastSeq = max(r.LastSeq, rec.Seq)
	switch rec.Kind {
	case RecDeploy, RecPlanned:
		if rec.State != nil {
			st := *rec.State
			// A start cannot be undone within one job: a snapshot
			// assembled before the RecStart landed must not unmark it.
			if prev := r.State; prev != nil && prev.Started && !st.Started {
				st.Started, st.StartUnixMillis = true, prev.StartUnixMillis
			}
			r.State = &st
			r.LastSeq = max(r.LastSeq, st.NextSeq)
		}
		if i, ok := r.inDoubt(rec.Seq); rec.Kind == RecPlanned && ok {
			r.InDoubt[i].Planned = true
			r.InDoubt[i].Trims = rec.Trims
		}
	case RecStart:
		if r.State != nil {
			st := *r.State
			st.Started, st.StartUnixMillis = true, rec.StartUnixMillis
			r.State = &st
		}
	case RecIntent:
		d := InDoubt{Seq: rec.Seq, Action: rec.Action, Victims: slices.Clone(rec.Victims), Pi: rec.Pi}
		if i, ok := r.inDoubt(rec.Seq); ok {
			r.InDoubt[i] = d
		} else {
			r.InDoubt = slices.Insert(r.InDoubt, i, d)
		}
	case RecCommit, RecAbort:
		if i, ok := r.inDoubt(rec.Seq); ok {
			r.InDoubt = slices.Delete(r.InDoubt, i, i+1)
		}
	case RecShip:
		// Metadata only: the payload lives in the durable store.
	}
}

// inDoubt returns where the open transition seq is, or would go, in
// InDoubt's sequence order, and whether it is there.
func (r *Replayed) inDoubt(seq uint64) (int, bool) {
	return slices.BinarySearchFunc(r.InDoubt, seq, func(d InDoubt, seq uint64) int { return cmp.Compare(d.Seq, seq) })
}
