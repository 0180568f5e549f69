package controlplane

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"hash/crc32"
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
	fi, err := os.Stat(filepath.Join(dir, journalFile))
	if err != nil {
		t.Fatal(err)
	}
	// Each append rewrites the whole snapshot; the last write is the file.
	if fi.Size() == 0 || st.JournalBytes <= uint64(fi.Size()) {
		t.Fatalf("bytes = %d for %d appends, the snapshot file holds %d", st.JournalBytes, len(recs), fi.Size())
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

// plant puts data at path; ReplaceFile is the one writer, so a planted
// file lands whole.
func plant(t *testing.T, path string, data []byte) {
	t.Helper()
	if err := core.ReplaceFile(path, data); err != nil {
		t.Fatal(err)
	}
}

// writeJournal appends recs to a fresh journal in a temporary directory
// and returns the directory.
func writeJournal(t *testing.T, recs ...*Record) string {
	t.Helper()
	dir := t.TempDir()
	j, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestJournalInterruptedWriteKeepsPreviousSnapshot: a write interrupted
// before its rename leaves a stray or truncated temporary file beside
// the snapshot. Replay reads the previous snapshot, and the next Append
// replaces both.
func TestJournalInterruptedWriteKeepsPreviousSnapshot(t *testing.T) {
	dir := writeJournal(t,
		&Record{Kind: RecDeploy, Seq: 1, State: testState(1)},
		&Record{Kind: RecStart, Seq: 2, StartUnixMillis: 99})
	path := filepath.Join(dir, journalFile)
	snap, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for name, tmp := range map[string][]byte{"stray": snap, "truncated": snap[:len(snap)/2], "empty": nil} {
		t.Run(name, func(t *testing.T) {
			plant(t, path+".tmp", tmp)
			rep, err := Replay(dir)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Records != 2 || !rep.State.Started || rep.State.StartUnixMillis != 99 {
				t.Fatalf("replay beside a %s temporary file = %+v, want the previous snapshot", name, rep)
			}
			j, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer j.Close()
			if err := j.Append(&Record{Kind: RecIntent, Seq: 3, Action: "recover", Pi: 1}); err != nil {
				t.Fatal(err)
			}
			if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
				t.Errorf("the temporary file survived the next append: %v", err)
			}
			rep, err = Replay(dir)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Records != 3 || len(rep.InDoubt) != 1 || rep.InDoubt[0].Seq != 3 || rep.State.StartUnixMillis != 99 {
				t.Fatalf("replay after the next append = %+v", rep)
			}
			plant(t, path, snap) // the next subtest starts from the same snapshot
		})
	}
}

// TestJournalCorruptSnapshotIsAnError: a snapshot that fails its checks
// is an error from Replay and Open, never an older or an empty state.
func TestJournalCorruptSnapshotIsAnError(t *testing.T) {
	dir := writeJournal(t, &Record{Kind: RecDeploy, Seq: 1, State: testState(1)})
	path := filepath.Join(dir, journalFile)
	snap, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	flipped := append([]byte{}, snap...)
	flipped[len(flipped)-1] ^= 0x40
	crc := append([]byte{}, snap...)
	crc[6] ^= 0xff
	for name, data := range map[string][]byte{
		"flipped body": flipped,
		"flipped CRC":  crc,
		"truncated":    snap[:len(snap)-1],
		"trailing":     append(append([]byte{}, snap...), 0),
		"header only":  snap[:headerLen-1],
	} {
		plant(t, path, data)
		if _, err := Replay(dir); err == nil {
			t.Errorf("Replay of a %s snapshot succeeded", name)
		}
		if _, err := Open(dir); err == nil {
			t.Errorf("Open of a %s snapshot succeeded", name)
		}
	}
}

// TestJournalInDoubtSurvivesLaterRecords: an intent stays in doubt
// however many records follow it, until its own commit or abort; and a
// fold handed out by Replayed does not change under later appends.
func TestJournalInDoubtSurvivesLaterRecords(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	must := func(r *Record) {
		t.Helper()
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	victim := plan.InstanceID{Op: "count", Part: 1}
	must(&Record{Kind: RecDeploy, Seq: 1, State: testState(1)})
	must(&Record{Kind: RecIntent, Seq: 2, Action: "scale-out", Victims: []plan.InstanceID{victim}, Pi: 2})
	first, err := j.Replayed()
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 50
	const later = 1 + 4*rounds
	must(&Record{Kind: RecStart, StartUnixMillis: 5})
	for seq := uint64(3); seq < 3+rounds; seq++ {
		must(&Record{Kind: RecIntent, Seq: seq, Action: "recover", Pi: 1})
		must(&Record{Kind: RecPlanned, Seq: seq, State: testState(seq)})
		must(&Record{Kind: RecCommit, Seq: seq})
		must(&Record{Kind: RecShip, Ship: &ShipMark{Inst: victim, Seq: seq}})
	}
	for _, reopen := range []bool{false, true} {
		rep, err := j.Replayed()
		if reopen {
			rep, err = Replay(dir)
		}
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.InDoubt) != 1 || rep.InDoubt[0].Seq != 2 || rep.InDoubt[0].Action != "scale-out" || rep.InDoubt[0].Planned {
			t.Fatalf("in doubt after %d later records = %+v, want the unplanned scale-out 2", later, rep.InDoubt)
		}
		if rep.Records != 2+later || rep.LastSeq != 2+rounds || rep.State.StartUnixMillis != 5 {
			t.Fatalf("records = %d, last seq = %d, state = %+v", rep.Records, rep.LastSeq, rep.State)
		}
	}
	if first.Records != 2 || first.State.Started || first.State.NextSeq != 1 || len(first.InDoubt) != 1 || first.InDoubt[0].Seq != 2 {
		t.Errorf("a fold handed out before the later records changed: %+v, state %+v", first, first.State)
	}
	must(&Record{Kind: RecAbort, Seq: 2, Reason: "test"})
	if rep, err := Replay(dir); err != nil || len(rep.InDoubt) != 0 {
		t.Fatalf("in doubt after the abort = %+v (%v)", rep, err)
	}
}

// v2Frame is a record framed as the version 2 write-ahead log framed
// it: [2][kind][len:4][crc32:4][gob Record].
func v2Frame(t testing.TB, rec *Record) []byte {
	var body bytes.Buffer
	if err := gob.NewEncoder(&body).Encode(rec); err != nil {
		t.Fatal(err)
	}
	b := body.Bytes()
	out := make([]byte, 10, 10+len(b))
	out[0], out[1] = 2, byte(rec.Kind)
	binary.LittleEndian.PutUint32(out[2:6], uint32(len(b)))
	binary.LittleEndian.PutUint32(out[6:10], crc32.ChecksumIEEE(b))
	return append(out, b...)
}

// TestJournalRefusesOtherVersion: a journal another version wrote — the
// version 2 write-ahead log at the same path — is an error on replay
// and on open, never misread and never overwritten.
func TestJournalRefusesOtherVersion(t *testing.T) {
	dir := t.TempDir()
	frame := v2Frame(t, &Record{Kind: RecDeploy, Seq: 1, State: testState(1)})
	path := filepath.Join(dir, journalFile)
	plant(t, path, frame)
	if _, err := Replay(dir); err == nil || !strings.Contains(err.Error(), "version") {
		t.Errorf("Replay of an older journal = %v, want a version error", err)
	}
	if _, err := Open(dir); err == nil || !strings.Contains(err.Error(), "version") {
		t.Errorf("Open of an older journal = %v, want a version error", err)
	}
	if data, err := os.ReadFile(path); err != nil || !bytes.Equal(data, frame) {
		t.Errorf("the older journal was changed: %d of %d bytes left (%v)", len(data), len(frame), err)
	}
}

func TestReplayEmptyDirErrors(t *testing.T) {
	if _, err := Replay(t.TempDir()); err == nil {
		t.Fatal("replay of a missing journal should error")
	}
}

// FuzzJournalReplay mirrors the transport's FuzzDecodeBatchFrame: any
// byte string must decode as a snapshot or be refused, without
// panicking, both as a whole file and as the body of a well-framed one
// (so the gob decoder sees arbitrary bytes too), and a snapshot that
// decodes must take another record and encode again.
func FuzzJournalReplay(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{journalVersion, 0, 0, 0, 0, 0, 0, 0, 0})
	var r Replayed
	r.fold(&Record{Kind: RecDeploy, Seq: 1, State: testState(1)})
	r.fold(&Record{Kind: RecIntent, Seq: 2, Action: "scale-in", Victims: []plan.InstanceID{{Op: "count", Part: 1}}})
	if snap, err := encodeSnapshot(&r); err == nil {
		f.Add(snap)
		f.Add(snap[:len(snap)-2]) // truncated
		flipped := append([]byte{}, snap...)
		flipped[6] ^= 0xff // the CRC
		f.Add(flipped)
	}
	f.Add(v2Frame(f, &Record{Kind: RecDeploy, Seq: 1, State: testState(1)}))
	// A snapshot with no deployment yet, as a journal of ship records
	// alone leaves.
	var ships Replayed
	ships.fold(&Record{Kind: RecShip, Ship: &ShipMark{Inst: plan.InstanceID{Op: "count", Part: 1}, Seq: 1, Bytes: 1 << 20}})
	if snap, err := encodeSnapshot(&ships); err == nil {
		f.Add(snap)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, file := range [][]byte{data, frame(data)} {
			r, err := decodeSnapshot(file)
			if err != nil {
				continue
			}
			r.fold(&Record{Kind: RecCommit, Seq: r.LastSeq})
			if _, err := encodeSnapshot(r); err != nil && !strings.Contains(err.Error(), "exceeds") {
				t.Fatalf("a decoded snapshot does not encode: %v", err)
			}
		}
	})
}
