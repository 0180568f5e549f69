package core

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"testing"

	"seep/internal/plan"
)

// booksManager returns a manager whose count operator starts with parts
// partitions, and a replace function that backs every victim up (a
// stateful victim cannot be planned without a checkpoint) and plans the
// transition.
func booksManager(t *testing.T, parts int) (*Manager, func(victims []plan.InstanceID, pi int, failure bool) *Transition) {
	t.Helper()
	q := wordQuery()
	q.Op("count").InitialParallelism = parts
	m, err := NewManager(q)
	if err != nil {
		t.Fatal(err)
	}
	return m, func(victims []plan.InstanceID, pi int, failure bool) *Transition {
		t.Helper()
		for _, v := range victims {
			host, err := m.BackupTarget(v)
			if err != nil {
				t.Fatal(err)
			}
			if err := m.Backups().Store(host, mkCheckpoint(v, 0)); err != nil {
				t.Fatal(err)
			}
		}
		tp, err := m.Plan(victims, pi, failure)
		if err != nil {
			t.Fatalf("plan %v → %d: %v", victims, pi, err)
		}
		return tp
	}
}

// TestManagerBooksLegacyOwner: Plan records victim → first replacement,
// and LegacyOwner chases that chain to whichever instance is live now —
// across a merge of a merge product, a split and a recovered product.
func TestManagerBooksLegacyOwner(t *testing.T) {
	m, replace := booksManager(t, 3)
	c := func(part int) plan.InstanceID { return inst("count", part) }

	owner := func(old plan.InstanceID) plan.InstanceID {
		t.Helper()
		got, ok := m.LegacyOwner(old)
		if !ok {
			t.Fatalf("LegacyOwner(%v) unknown", old)
		}
		if !m.Live(got) {
			t.Fatalf("LegacyOwner(%v) = %v, which is not live", old, got)
		}
		return got
	}

	if _, ok := m.LegacyOwner(c(1)); ok {
		t.Error("a live, never superseded instance has a legacy owner")
	}
	merged := replace([]plan.InstanceID{c(1), c(2)}, 1, false).NewInstances[0]
	if owner(c(1)) != merged || owner(c(2)) != merged {
		t.Errorf("after merge: owners %v, %v, want %v", owner(c(1)), owner(c(2)), merged)
	}
	// A merge of the merge product: the first victims' buffers ride on as
	// legacy of legacy.
	remerged := replace([]plan.InstanceID{merged, c(3)}, 1, false).NewInstances[0]
	for _, old := range []plan.InstanceID{c(1), c(2), c(3), merged} {
		if got := owner(old); got != remerged {
			t.Errorf("after merging the merge product: LegacyOwner(%v) = %v, want %v", old, got, remerged)
		}
	}
	// A split keeps the victims' retained output with the FIRST partition.
	halves := replace([]plan.InstanceID{remerged}, 2, false).NewInstances
	if got := owner(c(1)); got != halves[0] {
		t.Errorf("after split: LegacyOwner = %v, want first partition %v", got, halves[0])
	}
	// A recovered product: the failed holder is replaced, the chain follows.
	recovered := replace([]plan.InstanceID{halves[0]}, 1, true).NewInstances[0]
	for _, old := range []plan.InstanceID{c(1), c(2), c(3), merged, remerged, halves[0]} {
		if got := owner(old); got != recovered {
			t.Errorf("after recovery: LegacyOwner(%v) = %v, want %v", old, got, recovered)
		}
	}
	if _, ok := m.LegacyOwner(c(99)); ok {
		t.Error("an instance that never existed has a legacy owner")
	}
	if _, ok := m.LegacyOwner(recovered); ok {
		t.Error("the live holder itself has a legacy owner")
	}
}

// TestManagerBooksComplete: Complete appends one record per transition in
// completion order, derives Victim, Pi and Merge from the plan, and
// counts the merges.
func TestManagerBooksComplete(t *testing.T) {
	m, replace := booksManager(t, 1)
	split := replace(m.Instances("count"), 2, false)
	merge := replace(split.NewInstances, 1, false)
	recovery := replace(merge.NewInstances, 1, true)

	// Completion order is the record order, whatever the planning order.
	m.Complete(split, false, 10, 25, 7)
	m.Complete(recovery, true, 90, 130, 3)
	m.Complete(merge, false, 40, 60, 0)

	want := []Record{
		{Victim: inst("count", 1), Pi: 2, StartedAt: 10, CompletedAt: 25, ReplayedTuples: 7},
		{Victim: merge.NewInstances[0], Pi: 1, Failure: true, StartedAt: 90, CompletedAt: 130, ReplayedTuples: 3},
		{Victim: split.NewInstances[0], Pi: 1, StartedAt: 40, CompletedAt: 60, Merge: true},
	}
	got := m.Records()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Records() =\n %+v\nwant\n %+v", got, want)
	}
	if got[1].Duration() != 40 {
		t.Errorf("Duration() = %d, want 40", got[1].Duration())
	}
	if m.Merges() != 1 {
		t.Errorf("Merges() = %d, want 1", m.Merges())
	}
	// Records hands out a copy.
	got[0].Pi = 99
	if m.Records()[0].Pi != 2 {
		t.Error("Records() aliases the manager's books")
	}
}

// TestManagerBooksRestoreTopology: the books travel as one value. A
// manager restored from another's Books, through gob as the journal
// carries them, has the same books and resolves every superseded
// identity to the same live holder; and the same books always encode to
// the same bytes.
func TestManagerBooksRestoreTopology(t *testing.T) {
	m, replace := booksManager(t, 3)
	merged := replace([]plan.InstanceID{inst("count", 1), inst("count", 2)}, 1, false).NewInstances[0]
	replace([]plan.InstanceID{merged, inst("count", 3)}, 1, false)

	encode := func(b Books) []byte {
		t.Helper()
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(b); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	blob := encode(m.Books())
	for range 10 {
		if !bytes.Equal(encode(m.Books()), blob) {
			t.Fatal("two encodings of the same books differ")
		}
	}
	var books Books
	if err := gob.NewDecoder(bytes.NewReader(blob)).Decode(&books); err != nil {
		t.Fatal(err)
	}
	restored, err := NewManager(m.Query())
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.RestoreBooks(books); err != nil {
		t.Fatal(err)
	}
	if got := restored.Books(); !reflect.DeepEqual(got, m.Books()) || len(got.Legacy) != 4 {
		t.Fatalf("Books() = %+v after restore, want %+v (4 legacy pairs)", got, m.Books())
	}
	for _, l := range books.Legacy {
		want, _ := m.LegacyOwner(l.Old)
		if got, ok := restored.LegacyOwner(l.Old); !ok || got != want {
			t.Errorf("restored LegacyOwner(%v) = %v, %v; want %v", l.Old, got, ok, want)
		}
	}
	// The restored manager keeps the books from there on.
	host, _ := restored.BackupTarget(restored.Instances("count")[0])
	if err := restored.Backups().Store(host, mkCheckpoint(restored.Instances("count")[0], 0)); err != nil {
		t.Fatal(err)
	}
	tp, err := restored.Plan(restored.Instances("count"), 1, true)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := restored.LegacyOwner(inst("count", 1)); got != tp.NewInstances[0] {
		t.Errorf("LegacyOwner after a post-restore recovery = %v, want %v", got, tp.NewInstances[0])
	}
	if next := restored.Books().Ops[2]; next.Op != "count" || next.NextPart != tp.NewInstances[0].Part {
		t.Errorf("restored count books %+v: the partition counter did not carry over", next)
	}
}
