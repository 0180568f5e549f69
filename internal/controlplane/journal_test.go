package controlplane

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"seep/internal/core"
	"seep/internal/plan"
)

func testState(nextSeq uint64) *State {
	src, count := plan.InstanceID{Op: "src", Part: 1}, plan.InstanceID{Op: "count", Part: 3}
	return &State{
		Topology:   "wordcount",
		Workers:    []string{"w1", "w2"},
		Placements: []Placement{{Inst: count, Addr: "w2"}, {Inst: src, Addr: "w1"}},
		Books: core.Books{
			Ops: []core.OpBooks{
				{Op: "src", Instances: []plan.InstanceID{src}, NextPart: 1, Routing: []byte{1, 2, 3, 4}},
				{Op: "count", Instances: []plan.InstanceID{count}, NextPart: 3, Routing: []byte{5, 6, 7, 8}},
			},
			Legacy: []core.Inherit{{Old: plan.InstanceID{Op: "count", Part: 2}, New: count}},
		},
		NextSeq: nextSeq,
	}
}

func TestJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	recs := []*Record{
		{Kind: RecDeploy, Seq: 1, State: testState(1)},
		{Kind: RecStart, Seq: 2, StartUnixMillis: 12345},
		{Kind: RecIntent, Seq: 3, Action: "scale-out", Victims: []plan.InstanceID{{Op: "count", Part: 1}}, Pi: 2},
		{Kind: RecPlanned, Seq: 3, State: testState(3)},
		{Kind: RecCommit, Seq: 3},
		{Kind: RecShip, Ship: &ShipMark{Inst: plan.InstanceID{Op: "count", Part: 2}, Seq: 7, Bytes: 512}},
	}
	for _, r := range recs {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	st := j.Stats()
	if st.JournalAppends != uint64(len(recs)) {
		t.Fatalf("appends = %d, want %d", st.JournalAppends, len(recs))
	}
	if st.JournalBytes == 0 || j.Size() != int64(st.JournalBytes) {
		t.Fatalf("bytes = %d, size = %d", st.JournalBytes, j.Size())
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	rep, err := Replay(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Records != len(recs) {
		t.Fatalf("replayed %d records, want %d", rep.Records, len(recs))
	}
	want := testState(3)
	want.Started, want.StartUnixMillis = true, 12345
	if !reflect.DeepEqual(rep.State, want) {
		t.Fatalf("state = %+v, want %+v", rep.State, want)
	}
	if !rep.State.Started || rep.State.StartUnixMillis != 12345 {
		t.Fatalf("start not applied: %+v", rep.State)
	}
	if len(rep.InDoubt) != 0 {
		t.Fatalf("committed transition left in doubt: %+v", rep.InDoubt)
	}
	if rep.LastSeq != 3 {
		t.Fatalf("last seq = %d, want 3", rep.LastSeq)
	}
}

func TestJournalInDoubtTransitions(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	v1 := plan.InstanceID{Op: "count", Part: 1}
	v2 := plan.InstanceID{Op: "count", Part: 2}
	trims := []core.Trim{{Up: plan.InstanceID{Op: "split", Part: 1}, Owner: v1, TS: 41}}
	must := func(r *Record) {
		t.Helper()
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	must(&Record{Kind: RecDeploy, Seq: 1, State: testState(1)})
	// Aborted intent: closed, not in doubt.
	must(&Record{Kind: RecIntent, Seq: 2, Action: "scale-out", Victims: []plan.InstanceID{v1}, Pi: 2})
	must(&Record{Kind: RecAbort, Seq: 2, Reason: "worker died"})
	// Planned merge with no commit: in doubt, trims preserved.
	must(&Record{Kind: RecIntent, Seq: 3, Action: "scale-in", Victims: []plan.InstanceID{v1, v2}})
	must(&Record{Kind: RecPlanned, Seq: 3, State: testState(3), Trims: trims})
	j.Close()

	rep, err := Replay(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.InDoubt) != 1 {
		t.Fatalf("in doubt = %+v, want exactly the unclosed merge", rep.InDoubt)
	}
	d := rep.InDoubt[0]
	if d.Seq != 3 || d.Action != "scale-in" || !d.Planned {
		t.Fatalf("in doubt = %+v", d)
	}
	if len(d.Trims) != 1 || d.Trims[0].TS != 41 {
		t.Fatalf("trims = %+v", d.Trims)
	}
	if len(d.Victims) != 2 || d.Victims[0] != v1 || d.Victims[1] != v2 {
		t.Fatalf("victims = %+v", d.Victims)
	}
}

// TestJournalTornTail proves the WAL discipline: a crash mid-append
// costs exactly the record being written, and reopening truncates the
// garbage so later appends replay cleanly.
func TestJournalTornTail(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(&Record{Kind: RecDeploy, Seq: 1, State: testState(1)}); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(&Record{Kind: RecStart, Seq: 2, StartUnixMillis: 99}); err != nil {
		t.Fatal(err)
	}
	j.Close()

	// Tear the tail: chop the last record mid-frame.
	path := filepath.Join(dir, "journal.wal")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}

	rep, err := Replay(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Records != 1 || rep.State.Started {
		t.Fatalf("torn tail should drop only the torn record: %+v", rep)
	}

	// Reopen, append, replay: the torn bytes must not shadow the new
	// record.
	j2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := j2.Append(&Record{Kind: RecStart, Seq: 2, StartUnixMillis: 77}); err != nil {
		t.Fatal(err)
	}
	j2.Close()
	rep, err = Replay(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Records != 2 || !rep.State.Started || rep.State.StartUnixMillis != 77 {
		t.Fatalf("append after torn-tail truncation lost: %+v", rep.State)
	}
}

func TestJournalRotate(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(&Record{Kind: RecDeploy, Seq: 1, State: testState(1)}); err != nil {
		t.Fatal(err)
	}
	for seq := uint64(2); seq < 10; seq++ {
		if err := j.Append(&Record{Kind: RecCommit, Seq: seq}); err != nil {
			t.Fatal(err)
		}
	}
	before := j.Size()
	if err := j.Rotate(testState(10), 10); err != nil {
		t.Fatal(err)
	}
	if j.Size() >= before {
		t.Fatalf("rotation did not shrink the journal: %d -> %d", before, j.Size())
	}
	// Appends continue after rotation and replay sees snapshot + tail.
	if err := j.Append(&Record{Kind: RecIntent, Seq: 11, Action: "recover", Victims: []plan.InstanceID{{Op: "count", Part: 3}}, Pi: 1}); err != nil {
		t.Fatal(err)
	}
	if j.Stats().Rotations != 1 {
		t.Fatalf("rotations = %d", j.Stats().Rotations)
	}
	j.Close()
	rep, err := Replay(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Records != 2 || rep.State.NextSeq != 10 {
		t.Fatalf("post-rotation replay = %+v", rep)
	}
	if len(rep.InDoubt) != 1 || rep.InDoubt[0].Seq != 11 {
		t.Fatalf("in doubt after rotation = %+v", rep.InDoubt)
	}
	if rep.LastSeq != 11 {
		t.Fatalf("last seq = %d", rep.LastSeq)
	}
}

// TestJournalRefusesOtherVersion: a journal another version wrote is an
// error on replay and on open — never misread, and never truncated away
// as if it were a torn tail.
func TestJournalRefusesOtherVersion(t *testing.T) {
	dir := t.TempDir()
	frame, err := encodeRecord(&Record{Kind: RecDeploy, Seq: 1, State: testState(1)})
	if err != nil {
		t.Fatal(err)
	}
	frame[0] = journalVersion - 1
	path := filepath.Join(dir, "journal.wal")
	if err := os.WriteFile(path, frame, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Replay(dir); err == nil || !strings.Contains(err.Error(), "version") {
		t.Errorf("Replay of an older journal = %v, want a version error", err)
	}
	if _, err := Open(dir); err == nil || !strings.Contains(err.Error(), "version") {
		t.Errorf("Open of an older journal = %v, want a version error", err)
	}
	if data, err := os.ReadFile(path); err != nil || len(data) != len(frame) {
		t.Errorf("the older journal was changed: %d of %d bytes left (%v)", len(data), len(frame), err)
	}
}

func TestReplayEmptyDirErrors(t *testing.T) {
	if _, err := Replay(t.TempDir()); err == nil {
		t.Fatal("replay of a missing journal should error")
	}
}

// FuzzJournalReplay mirrors the transport's FuzzDecodeBatchFrame: any
// byte stream must decode without panicking, and whatever prefix
// decodes must re-fold without panicking.
func FuzzJournalReplay(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{journalVersion, byte(RecDeploy), 0, 0, 0, 0, 0, 0, 0, 0})
	if frame, err := encodeRecord(&Record{Kind: RecDeploy, Seq: 1, State: testState(1)}); err == nil {
		f.Add(frame)
		if start, err := encodeRecord(&Record{Kind: RecStart, Seq: 2, StartUnixMillis: 5}); err == nil {
			f.Add(append(append([]byte{}, frame...), start...))
		}
		// A torn frame and a bit-flipped CRC.
		f.Add(frame[:len(frame)-2])
		flipped := append([]byte{}, frame...)
		flipped[7] ^= 0xff
		f.Add(flipped)
		// A frame an older journal version wrote.
		older := append([]byte{}, frame...)
		older[0] = journalVersion - 1
		f.Add(older)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, n := DecodeRecords(data)
		if n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		// Folding whatever decoded must not panic either; the only
		// acceptable error is the no-deployment-snapshot case.
		_, _ = Fold(recs)
	})
}
