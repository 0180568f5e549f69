package controlplane

import (
	"fmt"
	"os"
	"sort"

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

// Replayed is the outcome of folding a journal: the last snapshot
// State with start metadata applied, the in-doubt transitions, and the
// highest sequence number any record used (the successor coordinator
// numbers its transitions from LastSeq+1, so journal sequences stay
// monotonic across restarts).
type Replayed struct {
	State   *State
	InDoubt []InDoubt
	LastSeq uint64
	Records int
}

// Replay reads and folds the journal in dir. A torn tail is tolerated
// (the WAL discipline: an interrupted append costs only the record
// being written); a journal with no deployment snapshot is an error —
// there is nothing to resume.
func Replay(dir string) (*Replayed, error) {
	data, err := os.ReadFile(journalPath(dir))
	if err != nil {
		return nil, fmt.Errorf("controlplane: read journal: %w", err)
	}
	if err := checkVersion(data); err != nil {
		return nil, err
	}
	recs, _ := DecodeRecords(data)
	return Fold(recs)
}

// Fold replays a record sequence into the final control-plane state.
func Fold(recs []Record) (*Replayed, error) {
	r := &Replayed{Records: len(recs)}
	open := make(map[uint64]*InDoubt)
	var openOrder []uint64
	for i := range recs {
		rec := &recs[i]
		if rec.Seq > r.LastSeq {
			r.LastSeq = rec.Seq
		}
		switch rec.Kind {
		case RecDeploy, RecSnapshot, RecPlanned:
			if rec.State != nil {
				// A start cannot be undone within one job: a snapshot
				// assembled before the RecStart landed must not unmark it.
				if prev := r.State; prev != nil && prev.Started && !rec.State.Started {
					rec.State.Started = true
					rec.State.StartUnixMillis = prev.StartUnixMillis
				}
				r.State = rec.State
				if rec.State.NextSeq > r.LastSeq {
					r.LastSeq = rec.State.NextSeq
				}
			}
			if rec.Kind == RecPlanned {
				if d := open[rec.Seq]; d != nil {
					d.Planned = true
					d.Trims = rec.Trims
				}
			}
		case RecStart:
			if r.State != nil {
				r.State.Started = true
				r.State.StartUnixMillis = rec.StartUnixMillis
			}
		case RecIntent:
			d := &InDoubt{Seq: rec.Seq, Action: rec.Action, Pi: rec.Pi}
			d.Victims = append(d.Victims, rec.Victims...)
			if _, dup := open[rec.Seq]; !dup {
				openOrder = append(openOrder, rec.Seq)
			}
			open[rec.Seq] = d
		case RecCommit, RecAbort:
			delete(open, rec.Seq)
		case RecShip:
			// Metadata only: the payload lives in the durable store.
		}
	}
	if r.State == nil {
		return nil, fmt.Errorf("controlplane: journal has no deployment snapshot (%d records)", len(recs))
	}
	sort.Slice(openOrder, func(i, j int) bool { return openOrder[i] < openOrder[j] })
	for _, seq := range openOrder {
		if d := open[seq]; d != nil {
			r.InDoubt = append(r.InDoubt, *d)
		}
	}
	return r, nil
}
