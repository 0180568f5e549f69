package dist

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"seep/internal/core"
	"seep/internal/engine"
	"seep/internal/operator"
	"seep/internal/plan"
	"seep/internal/state"
	"seep/internal/stream"
	"seep/internal/transport"
)

func countInst(part int) plan.InstanceID {
	return plan.InstanceID{Op: "count", Part: part}
}

// TestShipOversizeIsAnError: a checkpoint too large for one frame is the
// sender's error, like every failed ship: nothing was stored and nothing
// trimmed, so the error keeps the engine owing a full checkpoint and
// aborts a final retire to recovery at once. The engine counts the
// refused full once, the worker's stats carry the count, and the next
// checkpoint is a full one, not a delta from the full that was never
// stored.
func TestShipOversizeIsAnError(t *testing.T) {
	codec := state.GobPayloadCodec{}
	l, err := transport.ListenWith("127.0.0.1:0", codec, transport.Handlers{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	coord, err := transport.Dial(l.Addr(), codec)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	w := &Worker{codec: codec, coord: coord}
	var kv state.RunBuilder
	kv.Append(1, make([]byte, 17<<20))
	cp := &state.Checkpoint{Instance: countInst(0), Seq: 5, Processing: &state.Processing{KV: kv.Run()}}
	var tooBig *transport.FrameSizeError
	if err := (&shipSink{w: w}).Ship(cp); !errors.As(err, &tooBig) {
		t.Fatalf("Ship of a %d-byte checkpoint = %v, want a *FrameSizeError", kv.Run().Size(), err)
	}

	eng, op, ships := bigEngine(t, w)
	big := plan.InstanceID{Op: "big", Part: 1}
	if err := eng.Checkpoint(big); err != nil {
		t.Fatal(err)
	}
	if got := engineStats(eng).CheckpointsRefused; got != 1 {
		t.Errorf("CheckpointsRefused = %d after one oversize full, want 1", got)
	}
	op.v.Set(1, "small")
	if err := eng.Checkpoint(big); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(ships.fulls, []bool{true, true}) {
		t.Errorf("ships after a refused full (true = full): %v, want [true true] — the node must still owe a full", ships.fulls)
	}
	if got := engineStats(eng).CheckpointsRefused; got != 1 {
		t.Errorf("CheckpointsRefused = %d after a stored full, want 1", got)
	}
}

// TestOrphanShipIsRefused: with the coordinator link gone a ship is
// refused before its checkpoint is encoded, so the engine counts the
// refused full once and owes a full checkpoint; once a coordinator
// adopts the worker, the next capture ships as that full.
func TestOrphanShipIsRefused(t *testing.T) {
	codec := state.GobPayloadCodec{}
	w := &Worker{codec: codec, orphan: true}
	var kv state.RunBuilder
	kv.Append(1, make([]byte, 1<<20))
	cp := &state.Checkpoint{Instance: countInst(0), Seq: 5, Processing: &state.Processing{KV: kv.Run()}}
	sink := &shipSink{w: w}
	if allocs := testing.AllocsPerRun(10, func() {
		if sink.Ship(cp) == nil {
			t.Fatal("an orphaned worker's ship reported stored")
		}
	}); allocs > 1 {
		t.Errorf("an orphaned ship allocates %.0f times; it must refuse before encoding", allocs)
	}

	eng, op, ships := bigEngine(t, w)
	big := plan.InstanceID{Op: "big", Part: 1}
	if err := eng.Checkpoint(big); err != nil {
		t.Fatal(err)
	}
	if got := engineStats(eng).CheckpointsRefused; got != 1 {
		t.Errorf("CheckpointsRefused = %d after one orphaned full, want 1", got)
	}

	l, err := transport.ListenWith("127.0.0.1:0", codec, transport.Handlers{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	coord, err := transport.Dial(l.Addr(), codec)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	w.mu.Lock()
	w.coord, w.orphan = coord, false
	w.mu.Unlock()
	op.v.Set(1, "small")
	if err := eng.Checkpoint(big); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(ships.fulls, []bool{true, true}) {
		t.Errorf("ships after an orphaned full (true = full): %v, want [true true] — the node must still owe a full", ships.fulls)
	}
	if got := engineStats(eng).CheckpointsRefused; got != 1 {
		t.Errorf("CheckpointsRefused = %d after a stored full, want 1", got)
	}
}

// bigEngine is src → big → sink, whose incremental checkpoints ship
// through w's sink; big's one cell starts at 17 MiB, past a frame.
func bigEngine(t *testing.T, w *Worker) (*engine.Engine, *bigState, *shipLog) {
	t.Helper()
	q := plan.NewQuery()
	q.AddOp(plan.OpSpec{ID: "src", Role: plan.RoleSource})
	q.AddOp(plan.OpSpec{ID: "big", Role: plan.RoleStateful})
	q.AddOp(plan.OpSpec{ID: "sink", Role: plan.RoleSink})
	q.Connect("src", "big").Connect("big", "sink")
	var op *bigState
	ships := &shipLog{next: &shipSink{w: w}}
	eng, err := engine.New(engine.Config{CheckpointInterval: time.Hour, Incremental: true, Backup: ships}, q,
		map[plan.OpID]operator.Factory{"big": func() operator.Operator { op = newBigState(17 << 20); return op }})
	if err != nil {
		t.Fatal(err)
	}
	return eng, op, ships
}

// bigState is a managed operator whose one cell holds a value of a
// given size under key 1.
type bigState struct {
	st *state.Store
	v  *state.Value[string]
}

func newBigState(size int) *bigState {
	b := &bigState{st: state.NewStore()}
	b.v = state.NewValue[string](b.st, "v", state.StringCodec{})
	b.v.Set(1, strings.Repeat("x", size))
	return b
}

func (b *bigState) OnTuple(operator.Context, stream.Tuple, operator.Emitter) {}

func (b *bigState) State() *state.Store { return b.st }

// shipLog records whether each capture it forwards is a full checkpoint.
type shipLog struct {
	next  engine.BackupSink
	fulls []bool
}

func (s *shipLog) Ship(cp *state.Checkpoint) error {
	s.fulls = append(s.fulls, cp.Base == 0)
	return s.next.Ship(cp)
}

func (s *shipLog) Accepts() bool { return s.next.Accepts() }

// TestShipEncodesOnce: a ship marshals its checkpoint straight behind the
// message head, into the buffer the frame is written from. One Ship of a
// 100k-key checkpoint allocates little more than that frame body, and
// the body carries the checkpoint as MarshalCheckpoint encodes it.
func TestShipEncodesOnce(t *testing.T) {
	codec := state.GobPayloadCodec{}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		if c, err := ln.Accept(); err == nil {
			io.Copy(io.Discard, c)
			c.Close()
		}
	}()
	coord, err := transport.Dial(ln.Addr().String(), codec)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	s := state.NewStore()
	v := state.NewValue[int64](s, "n", state.Int64Codec{})
	for i := 0; i < 100_000; i++ {
		v.Set(stream.Key(stream.Mix64(uint64(i))), int64(i))
	}
	kv, err := s.TakeCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	cp := &state.Checkpoint{Instance: countInst(0), Seq: 1, Processing: &state.Processing{KV: kv}, Buffer: state.NewBuffer()}

	w := &Worker{codec: codec, coord: coord, self: "w"}
	body, err := encodeShip(&Control{Kind: MsgShip, From: w.self}, cp, codec)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := state.MarshalCheckpoint(cp, codec)
	if err != nil {
		t.Fatal(err)
	}
	if c, err := decodeControl(body); err != nil || !bytes.Equal(c.Checkpoint, blob) {
		t.Fatalf("the ship body does not carry the marshalled checkpoint (decode error %v)", err)
	}
	if len(body) != cap(body) {
		t.Errorf("ship body: len %d, cap %d — not sized exactly", len(body), cap(body))
	}

	sink := &shipSink{w: w}
	if err := sink.Ship(cp); err != nil { // warms gob's type cache
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := sink.Ship(cp); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if alloc := after.TotalAlloc - before.TotalAlloc; float64(alloc) > 1.2*float64(len(body)) {
		t.Errorf("one Ship allocated %d bytes for a %d-byte frame body, want ≤ 1.2×", alloc, len(body))
	}
}

// shipHarness is a coordinator with a manager and no event loop, whose
// storeShip a test calls directly. The query is src (two instances) →
// count → sink, and both src instances are placed on one worker, a
// listener that collects the MsgTrims the coordinator sends it.
type shipHarness struct {
	c     *Coordinator
	mgr   *core.Manager
	srcs  []plan.InstanceID
	count plan.InstanceID
	trims chan *Control
}

func newShipHarness(t *testing.T) *shipHarness {
	t.Helper()
	codec := state.GobPayloadCodec{}
	q := plan.NewQuery()
	q.AddOp(plan.OpSpec{ID: "src", Role: plan.RoleSource, InitialParallelism: 2})
	q.AddOp(plan.OpSpec{ID: "count", Role: plan.RoleStateful})
	q.AddOp(plan.OpSpec{ID: "sink", Role: plan.RoleSink})
	q.Connect("src", "count").Connect("count", "sink")
	mgr, err := core.NewManager(q)
	if err != nil {
		t.Fatal(err)
	}
	h := &shipHarness{mgr: mgr, srcs: mgr.Instances("src"), count: mgr.Instances("count")[0], trims: make(chan *Control, 16)}
	l, err := transport.ListenWith("127.0.0.1:0", codec, transport.Handlers{OnControl: func(body []byte) {
		if c, err := decodeControl(body); err == nil && c.Kind == MsgTrim {
			h.trims <- c
		}
	}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	peer, err := transport.Dial(l.Addr(), codec)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { peer.Close() })
	h.c = &Coordinator{
		codec:     codec,
		mgr:       mgr,
		workers:   map[string]*workerRef{l.Addr(): {peer: peer, alive: true}},
		placement: map[plan.InstanceID]string{h.srcs[0]: l.Addr(), h.srcs[1]: l.Addr()},
	}
	return h
}

// acked acknowledges both src instances, at ts and ts+1.
func (h *shipHarness) acked(ts int64) map[plan.InstanceID]int64 {
	return map[plan.InstanceID]int64{h.srcs[0]: ts, h.srcs[1]: ts + 1}
}

// nextTrim returns what the worker's next MsgTrim acknowledges.
func (h *shipHarness) nextTrim(t *testing.T) map[plan.InstanceID]int64 {
	t.Helper()
	select {
	case c := <-h.trims:
		got := make(map[plan.InstanceID]int64, len(c.TrimAcks))
		for _, tr := range c.TrimAcks {
			if tr.Owner != h.count {
				t.Errorf("trim %+v names owner %v, want %v", tr, tr.Owner, h.count)
			}
			got[tr.Up] = tr.TS
		}
		return got
	case <-time.After(5 * time.Second):
		t.Fatal("no MsgTrim arrived")
		return nil
	}
}

// ship is the MsgShip a worker sends for cp, a delta from base when
// base is non-zero.
func (h *shipHarness) ship(t *testing.T, cp *state.Checkpoint, base uint64, deleted ...stream.Key) *Control {
	t.Helper()
	blob, err := state.MarshalCheckpoint(cp, h.c.codec)
	if err != nil {
		t.Fatal(err)
	}
	return &Control{Kind: MsgShip, From: "w", Checkpoint: blob, Base: base, Deleted: deleted}
}

// stored returns the seq of count's stored checkpoint and the store's
// ship tallies.
func (h *shipHarness) stored(t *testing.T) (uint64, core.ShipStats) {
	t.Helper()
	cp, _, ok := h.mgr.Backups().Latest(h.count)
	if !ok {
		t.Fatal("no stored checkpoint")
	}
	return cp.Seq, h.mgr.Backups().ShipStats()
}

// full is count's full checkpoint at seq, acknowledging acked(ts), over
// keys 1, 2 and 3.
func (h *shipHarness) full(seq uint64, ts int64) *state.Checkpoint {
	return &state.Checkpoint{Instance: h.count, Seq: seq, Buffer: state.NewBuffer(), Acks: h.acked(ts),
		Processing: &state.Processing{KV: shipRun(map[stream.Key]string{1: "a", 2: "b", 3: "c"})}}
}

// view is the checkpoint a delta at seq that sets key 2 travels as.
func (h *shipHarness) view(seq uint64) *state.Checkpoint {
	return &state.Checkpoint{Instance: h.count, Seq: seq, Buffer: state.NewBuffer(), Acks: h.acked(40),
		Processing: &state.Processing{KV: shipRun(map[stream.Key]string{2: "x"})}}
}

// shipRun is the run of kv's entries among keys 1, 2 and 3.
func shipRun(kv map[stream.Key]string) state.Run {
	var b state.RunBuilder
	for _, k := range []stream.Key{1, 2, 3} {
		if v, ok := kv[k]; ok {
			b.Append(k, []byte(v))
		}
	}
	return b.Run()
}

// TestStoreShipRejectsBadDeltas: a delta the coordinator cannot read as
// one — a base that does not precede it, deleted keys out of order or
// repeated, legacy buffers — is reported through Errors and leaves the
// store and the upstream acknowledgements untouched. A delta whose base
// is no longer the stored checkpoint is dropped without an error, and a
// good delta folds, trims, and is not taken for a full checkpoint. Each
// good ship acknowledges two upstream instances hosted on one worker,
// and trims them with one MsgTrim carrying both.
func TestStoreShipRejectsBadDeltas(t *testing.T) {
	h := newShipHarness(t)
	c, count := h.c, h.count
	if inst, ok := c.storeShip(h.ship(t, h.full(3, 30), 0)); !ok || inst != count {
		t.Fatalf("full checkpoint not stored: %v, %v (errors %v)", inst, ok, c.Errors())
	}
	if got := h.nextTrim(t); !reflect.DeepEqual(got, h.acked(30)) {
		t.Fatalf("the full checkpoint's MsgTrim acknowledges %v, want %v", got, h.acked(30))
	}
	seq0, stats0 := h.stored(t)

	merged := state.NewBuffer()
	merged.Append(plan.InstanceID{Op: "sink", Part: 1}, stream.Tuple{TS: 1, Payload: "old"})
	legacy := h.view(4)
	legacy.Legacy = map[plan.InstanceID]*state.Buffer{{Op: "count", Part: 9}: merged}
	cases := []struct {
		name string
		ctl  *Control
	}{
		{"base 0", h.ship(t, h.view(4), 0, 1)},
		{"base at seq", h.ship(t, h.view(4), 4)},
		{"base past seq", h.ship(t, h.view(4), 5)},
		{"unsorted deleted", h.ship(t, h.view(4), 3, 3, 1)},
		{"duplicate deleted", h.ship(t, h.view(4), 3, 1, 1)},
		{"legacy buffers", h.ship(t, legacy, 3)},
	}
	for _, tc := range cases {
		errs := len(c.Errors())
		if _, ok := c.storeShip(tc.ctl); ok {
			t.Errorf("%s: stored as a full checkpoint", tc.name)
		}
		if got := len(c.Errors()); got != errs+1 {
			t.Errorf("%s: %d errors reported, want 1", tc.name, got-errs)
		}
		if seq, stats := h.stored(t); seq != seq0 || stats != stats0 {
			t.Errorf("%s: store moved to seq %d, %+v; want %d, %+v", tc.name, seq, stats, seq0, stats0)
		}
	}

	errs := len(c.Errors())
	if _, ok := c.storeShip(h.ship(t, h.view(6), 5)); ok || len(c.Errors()) != errs {
		t.Errorf("stale base: stored %v, errors %v", ok, c.Errors()[errs:])
	}
	if seq, stats := h.stored(t); seq != seq0 || stats != stats0 {
		t.Errorf("stale base: store moved to seq %d, %+v", seq, stats)
	}

	if _, ok := c.storeShip(h.ship(t, h.view(4), 3, 1)); ok {
		t.Error("a delta satisfied a wait for a full checkpoint")
	}
	cp, _, _ := h.mgr.Backups().Latest(count)
	_, has1 := cp.Processing.KV.Get(1)
	two, _ := cp.Processing.KV.Get(2)
	if cp.Seq != 4 || has1 || string(two) != "x" || h.mgr.Backups().ShipStats().Deltas != stats0.Deltas+1 {
		t.Errorf("good delta folded to seq %d, key 1 present %v, key 2 %q", cp.Seq, has1, two)
	}
	// One connection delivers in order: had the full ship trimmed with a
	// second MsgTrim, or any rejected delta trimmed, it would arrive
	// before this one.
	if got := h.nextTrim(t); !reflect.DeepEqual(got, h.acked(40)) {
		t.Errorf("first MsgTrim after the full one acknowledges %v, want the good delta's %v", got, h.acked(40))
	}
	if len(c.Errors()) != errs {
		t.Errorf("errors after the good delta: %v", c.Errors()[errs:])
	}
}

// TestDeltaFoldPersistsBeforeInstall: with a durable control plane a
// delta's fold reaches disk before memory. When the write fails, the
// stored checkpoint stays the base, the delta is not counted, nothing is
// trimmed, and the failure is reported — memory never claims a
// durability it does not have.
func TestDeltaFoldPersistsBeforeInstall(t *testing.T) {
	h := newShipHarness(t)
	c, count := h.c, h.count
	dir := t.TempDir()
	ds, err := core.NewDurableStoreOver(h.mgr.Backups(), dir, c.codec)
	if err != nil {
		t.Fatal(err)
	}
	c.dstore = ds
	if _, ok := c.storeShip(h.ship(t, h.full(3, 30), 0)); !ok {
		t.Fatalf("full checkpoint not stored (errors %v)", c.Errors())
	}
	if got := h.nextTrim(t); !reflect.DeepEqual(got, h.acked(30)) {
		t.Fatalf("the full checkpoint's MsgTrim acknowledges %v, want %v", got, h.acked(30))
	}
	seq0, stats0 := h.stored(t)

	// A directory where the write's temporary file goes fails the write;
	// a read-only mode would not stop a process running as root.
	tmp := filepath.Join(dir, fmt.Sprintf("%s-%d.ckpt.tmp", count.Op, count.Part))
	if err := os.Mkdir(tmp, 0o755); err != nil {
		t.Fatal(err)
	}
	errs := len(c.Errors())
	if _, ok := c.storeShip(h.ship(t, h.view(4), 3, 1)); ok {
		t.Error("a delta satisfied a wait for a full checkpoint")
	}
	if seq, stats := h.stored(t); seq != seq0 || stats.Deltas != stats0.Deltas {
		t.Errorf("after a failed persist the store holds seq %d with %d deltas; want the base's seq %d and %d deltas",
			seq, stats.Deltas, seq0, stats0.Deltas)
	}
	if got := len(c.Errors()); got != errs+1 {
		t.Errorf("%d errors reported for the failed persist, want 1", got-errs)
	}

	if err := os.Remove(tmp); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.storeShip(h.ship(t, h.full(5, 50), 0)); !ok {
		t.Fatalf("full checkpoint not stored (errors %v)", c.Errors())
	}
	// One connection delivers in order: had the failed delta trimmed, its
	// MsgTrim would arrive before the full's.
	if got := h.nextTrim(t); !reflect.DeepEqual(got, h.acked(50)) {
		t.Errorf("first MsgTrim after the failed delta acknowledges %v, want the next full's %v", got, h.acked(50))
	}
}

// TestStorePathsAgree feeds one capture sequence through every path a
// checkpoint takes to a backup store: the engine's in-process sink,
// shipSink into storeShip with the manager's store, and storeShip with a
// durable store. After every step each holds the same checkpoint, byte
// for byte. The sequence: a full; a delta with changed and deleted keys;
// a full no store takes, as when the coordinator's write fails and the
// worker never hears of it; a delta from that full, which every path
// refuses; and a full.
func TestStorePathsAgree(t *testing.T) {
	codec := state.GobPayloadCodec{}
	q := plan.NewQuery()
	q.AddOp(plan.OpSpec{ID: "src", Role: plan.RoleSource})
	q.AddOp(plan.OpSpec{ID: "count", Role: plan.RoleStateful})
	q.AddOp(plan.OpSpec{ID: "sink", Role: plan.RoleSink})
	q.Connect("src", "count").Connect("count", "sink")
	eng, err := engine.New(engine.Config{}, q, map[plan.OpID]operator.Factory{
		"count": func() operator.Operator { return operator.NewWordCounter(0) },
	})
	if err != nil {
		t.Fatal(err)
	}
	count := eng.Manager().Instances("count")[0]

	// shipSink's worker sends to a listener that hands every ship over.
	ships := make(chan *Control, 1)
	l, err := transport.ListenWith("127.0.0.1:0", codec, transport.Handlers{OnControl: func(body []byte) {
		if c, err := decodeControl(body); err == nil && c.Kind == MsgShip {
			ships <- c
		}
	}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	peer, err := transport.Dial(l.Addr(), codec)
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	sink := &shipSink{w: &Worker{codec: codec, coord: peer, self: "w"}}
	coordinator := func() *Coordinator {
		mgr, err := core.NewManager(q)
		if err != nil {
			t.Fatal(err)
		}
		return &Coordinator{codec: codec, mgr: mgr, placement: map[plan.InstanceID]string{}}
	}
	mem, durable := coordinator(), coordinator()
	if durable.dstore, err = core.NewDurableStoreOver(durable.mgr.Backups(), t.TempDir(), codec); err != nil {
		t.Fatal(err)
	}

	st := state.NewStore()
	v := state.NewValue[string](st, "v", state.StringCodec{})
	in := state.NewInstance(st)
	for k := range 100 {
		v.Set(stream.Key(k), fmt.Sprint("v", k))
	}
	step := func(name string, deliver bool, wantSeq uint64) *state.Checkpoint {
		t.Helper()
		cp := in.BeginCheckpoint(count).Checkpoint(true)
		if deliver {
			if err := eng.Backup().Ship(cp); (err == nil) != (cp.Seq == wantSeq) {
				t.Fatalf("%s: the engine's sink returned %v", name, err)
			}
			if err := sink.Ship(cp); err != nil {
				t.Fatalf("%s: shipSink: %v", name, err)
			}
			select {
			case ctl := <-ships:
				mem.storeShip(ctl)
				durable.storeShip(ctl)
			case <-time.After(5 * time.Second):
				t.Fatalf("%s: no MsgShip arrived", name)
			}
		}
		var blobs [][]byte
		for _, bs := range []*core.BackupStore{eng.Manager().Backups(), mem.mgr.Backups(), durable.mgr.Backups()} {
			got, _, ok := bs.Latest(count)
			if !ok || got.Seq != wantSeq {
				t.Fatalf("%s: stored %+v, want seq %d", name, got, wantSeq)
			}
			blob, err := state.MarshalCheckpoint(got, codec)
			if err != nil {
				t.Fatal(err)
			}
			blobs = append(blobs, blob)
		}
		if !bytes.Equal(blobs[0], blobs[1]) || !bytes.Equal(blobs[0], blobs[2]) {
			t.Fatalf("%s: the stores disagree: engine %d B, shipSink→storeShip %d B, durable storeShip %d B",
				name, len(blobs[0]), len(blobs[1]), len(blobs[2]))
		}
		if errs := append(mem.Errors(), durable.Errors()...); len(errs) != 0 {
			t.Fatalf("%s: errors %v", name, errs)
		}
		return cp
	}

	step("full", true, 1)
	v.Set(1, "changed")
	v.Set(100, "new")
	v.Delete(2)
	v.Delete(4)
	if cp := step("delta", true, 2); cp.Base != 1 || len(cp.Deleted) != 2 {
		t.Fatalf("the delta step captured base %d with deleted keys %v, want base 1 and two", cp.Base, cp.Deleted)
	}
	if cp, _, _ := eng.Manager().Backups().Latest(count); cp.Processing.KV.Len() != 99 {
		t.Fatalf("the fold holds %d keys, want 99", cp.Processing.KV.Len())
	}
	in.NeedFull = true
	v.Set(3, "lost")
	step("refused full", false, 2)
	v.Delete(5)
	if cp := step("delta from the refused full", true, 2); cp.Base != 3 {
		t.Fatalf("the step after the refused full captured base %d, want a delta from 3", cp.Base)
	}
	in.NeedFull = true
	step("full", true, 5)
}

// retainedSink reports the retained-output size of every checkpoint
// shipped to it.
type retainedSink chan int

func (s retainedSink) Ship(cp *state.Checkpoint) error {
	s <- cp.Buffer.Len()
	return nil
}

func (s retainedSink) Accepts() bool { return true }

// TestTrimBypassesControlQueue: a MsgTrim is applied on the connection
// goroutine, never queued behind other control messages. With the
// control goroutine held inside a MsgDeploy, a trim sent after it still
// trims the upstream buffer within a second.
func TestTrimBypassesControlQueue(t *testing.T) {
	q := plan.NewQuery()
	q.AddOp(plan.OpSpec{ID: "src", Role: plan.RoleSource})
	q.AddOp(plan.OpSpec{ID: "split", Role: plan.RoleStateless})
	q.AddOp(plan.OpSpec{ID: "count", Role: plan.RoleStateful})
	q.AddOp(plan.OpSpec{ID: "sink", Role: plan.RoleSink})
	q.Connect("src", "split").Connect("split", "count").Connect("count", "sink")
	src := plan.InstanceID{Op: "src", Part: 1}
	split, count := plan.InstanceID{Op: "split", Part: 1}, plan.InstanceID{Op: "count", Part: 1}

	w, err := NewWorker("127.0.0.1:0", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Kill()
	retained := make(retainedSink, 1)
	// An hour-long interval keeps output retained without a periodic
	// checkpoint ever firing.
	eng, err := engine.New(engine.Config{CheckpointInterval: time.Hour, Backup: retained}, q, map[plan.OpID]operator.Factory{
		"split": func() operator.Operator { return operator.WordSplitter() },
		"count": func() operator.Operator { return operator.NewWordCounter(0) },
	})
	if err != nil {
		t.Fatal(err)
	}
	w.mu.Lock()
	w.setEngine(eng)
	w.mu.Unlock()
	eng.Start()
	if err := eng.InjectBatch(src, 10, func(i uint64) (stream.Key, any) { return stream.Key(i), "word" }); err != nil {
		t.Fatal(err)
	}
	// splitRetains waits up to a second for split's retained output toward
	// count to reach want.
	splitRetains := func(want int) bool {
		for deadline := time.Now().Add(time.Second); time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
			if err := eng.CheckpointFull(split); err != nil {
				t.Fatal(err)
			}
			if <-retained == want {
				return true
			}
		}
		return false
	}
	if !splitRetains(10) {
		t.Fatal("split never retained its 10 tuples toward count")
	}

	peer, err := transport.Dial(w.Addr(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	send := func(c *Control) {
		t.Helper()
		body, err := encodeControl(c)
		if err == nil {
			err = peer.SendControl(body)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	fresh := state.NewInstance(nil)
	cp := fresh.BeginCheckpoint(plan.InstanceID{Op: "count", Part: 2}).Checkpoint(false)
	blob, err := state.MarshalCheckpoint(cp, w.codec)
	if err != nil {
		t.Fatal(err)
	}
	// A deploy adopts under the worker lock: holding it parks the control
	// goroutine inside the MsgDeploy.
	w.mu.Lock()
	send(&Control{Kind: MsgDeploy, Seq: 1, Checkpoint: blob, Routing: state.MarshalRouting(state.NewRouting(count))})
	send(&Control{Kind: MsgTrim, TrimAcks: []core.Trim{{Up: split, Owner: count, TS: 10}}})
	trimmed := splitRetains(0)
	w.mu.Unlock()
	if !trimmed {
		t.Fatal("a MsgTrim waited behind a blocked MsgDeploy: split still retains its output after 1 s")
	}
}
