package core

import (
	"errors"
	"strings"
	"testing"

	"seep/internal/plan"
	"seep/internal/state"
	"seep/internal/stream"
)

func inst(op string, part int) plan.InstanceID {
	return plan.InstanceID{Op: plan.OpID(op), Part: part}
}

func wordQuery() *plan.Query {
	q := plan.NewQuery()
	q.AddOp(plan.OpSpec{ID: "src", Role: plan.RoleSource})
	q.AddOp(plan.OpSpec{ID: "split", Role: plan.RoleStateless})
	q.AddOp(plan.OpSpec{ID: "count", Role: plan.RoleStateful})
	q.AddOp(plan.OpSpec{ID: "sink", Role: plan.RoleSink})
	q.Connect("src", "split")
	q.Connect("split", "count")
	q.Connect("count", "sink")
	return q
}

func mkCheckpoint(owner plan.InstanceID, nkeys int) *state.Checkpoint {
	var kv state.RunBuilder
	for i := 0; i < nkeys; i++ {
		// Spread keys over the space deterministically.
		k := stream.Key(uint64(i) * (^uint64(0) / uint64(nkeys)))
		kv.Append(k, []byte{byte(i)})
	}
	return &state.Checkpoint{
		Instance:   owner,
		Seq:        1,
		Processing: &state.Processing{KV: kv.Run()},
		Buffer:     state.NewBuffer(),
		OutClock:   int64(nkeys),
	}
}

func TestChooseBackupDeterministicAndBalanced(t *testing.T) {
	ups := []plan.InstanceID{inst("split", 1), inst("split", 2), inst("split", 3)}
	got1, err := ChooseBackup(inst("count", 1), ups)
	if err != nil {
		t.Fatal(err)
	}
	// Stable under permutation of the upstream list.
	perm := []plan.InstanceID{ups[2], ups[0], ups[1]}
	got2, err := ChooseBackup(inst("count", 1), perm)
	if err != nil {
		t.Fatal(err)
	}
	if got1 != got2 {
		t.Errorf("backup choice depends on ordering: %v vs %v", got1, got2)
	}
	// Different owners spread across hosts (hash-based balancing).
	hosts := make(map[plan.InstanceID]int)
	for i := 1; i <= 50; i++ {
		h, err := ChooseBackup(inst("count", i), ups)
		if err != nil {
			t.Fatal(err)
		}
		hosts[h]++
	}
	if len(hosts) < 2 {
		t.Errorf("50 owners all backed up to one host: %v", hosts)
	}
	if _, err := ChooseBackup(inst("count", 1), nil); err == nil {
		t.Error("expected error with no upstreams")
	}
}

func TestBackupStoreLifecycle(t *testing.T) {
	s := NewBackupStore()
	owner := inst("count", 1)
	host := inst("split", 1)
	cp := mkCheckpoint(owner, 4)
	if err := s.Store(host, cp); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 1 || s.Bytes() != cp.Size() {
		t.Errorf("Len=%d Bytes=%d", s.Len(), s.Bytes())
	}
	got, gotHost, ok := s.Latest(owner)
	if !ok || gotHost != host || got.Seq != 1 {
		t.Fatalf("Latest = %v %v %v", got, gotHost, ok)
	}

	// Newer checkpoint supersedes.
	cp2 := mkCheckpoint(owner, 8)
	cp2.Seq = 2
	if err := s.Store(host, cp2); err != nil {
		t.Fatal(err)
	}
	got, _, _ = s.Latest(owner)
	if got.Seq != 2 {
		t.Errorf("Seq after supersede = %d", got.Seq)
	}
	if s.Bytes() != cp2.Size() {
		t.Errorf("Bytes after supersede = %d, want %d", s.Bytes(), cp2.Size())
	}

	// Stale write at the same host is rejected.
	stale := mkCheckpoint(owner, 2)
	stale.Seq = 1
	if err := s.Store(host, stale); err == nil {
		t.Error("stale store should fail")
	}

	// Moving to a different host is allowed (backup operator changed).
	moved := mkCheckpoint(owner, 3)
	moved.Seq = 1
	if err := s.Store(inst("split", 2), moved); err != nil {
		t.Errorf("relocating backup: %v", err)
	}

	s.Delete(owner)
	if _, _, ok := s.Latest(owner); ok {
		t.Error("Latest after Delete")
	}
	if s.Bytes() != 0 {
		t.Errorf("Bytes after Delete = %d", s.Bytes())
	}
}

func TestBackupStoreDropHost(t *testing.T) {
	s := NewBackupStore()
	host1, host2 := inst("split", 1), inst("split", 2)
	if err := s.Store(host1, mkCheckpoint(inst("count", 1), 2)); err != nil {
		t.Fatal(err)
	}
	if err := s.Store(host1, mkCheckpoint(inst("count", 2), 2)); err != nil {
		t.Fatal(err)
	}
	if err := s.Store(host2, mkCheckpoint(inst("count", 3), 2)); err != nil {
		t.Fatal(err)
	}
	if got := s.HostedBy(host1); len(got) != 2 {
		t.Errorf("HostedBy = %v", got)
	}
	lost := s.DropHost(host1)
	if len(lost) != 2 {
		t.Fatalf("DropHost lost %v", lost)
	}
	if lost[0] != inst("count", 1) || lost[1] != inst("count", 2) {
		t.Errorf("lost order = %v", lost)
	}
	if s.Len() != 1 {
		t.Errorf("Len after drop = %d", s.Len())
	}
	if _, _, ok := s.Latest(inst("count", 3)); !ok {
		t.Error("unrelated backup dropped")
	}
}

func TestBackupStoreRejectsInvalid(t *testing.T) {
	s := NewBackupStore()
	if err := s.Store(inst("x", 1), &state.Checkpoint{}); err == nil {
		t.Error("invalid checkpoint stored")
	}
}

func TestManagerInitialRouting(t *testing.T) {
	q := wordQuery()
	q.Op("count").InitialParallelism = 2
	m, err := NewManager(q)
	if err != nil {
		t.Fatal(err)
	}
	r := m.Routing("count")
	if len(r.Targets()) != 2 {
		t.Errorf("initial routing targets = %v", r.Targets())
	}
	// Every key routes to exactly one live instance.
	for _, k := range []stream.Key{0, 1 << 32, stream.MaxKey} {
		target := r.Lookup(k)
		if !m.Live(target) {
			t.Errorf("key %d routed to dead instance %v", k, target)
		}
	}
	if got := m.Parallelism("count"); got != 2 {
		t.Errorf("Parallelism = %d", got)
	}
}

func TestManagerRejectsInvalidQuery(t *testing.T) {
	if _, err := NewManager(plan.NewQuery()); err == nil {
		t.Error("empty query accepted")
	}
}

func TestManagerBackupTarget(t *testing.T) {
	m, err := NewManager(wordQuery())
	if err != nil {
		t.Fatal(err)
	}
	host, err := m.BackupTarget(inst("count", 1))
	if err != nil {
		t.Fatal(err)
	}
	if host.Op != "split" {
		t.Errorf("backup host = %v, want a split instance", host)
	}
}

// TestPlanShapes: recovery (1→1), scale out (1→π) and merge (N→1) are
// one plan shape built by one planner body, so one table checks the
// invariants every shape shares.
func TestPlanShapes(t *testing.T) {
	up := inst("split", 1)
	// seed gives the manager victims live partitions of count, each with a
	// stored final checkpoint holding 6 keys, an acknowledgement position
	// and one retained output tuple per key.
	seed := func(t *testing.T, victims int) (*Manager, []plan.InstanceID) {
		q := wordQuery()
		q.Op("count").InitialParallelism = victims
		m, err := NewManager(q)
		if err != nil {
			t.Fatal(err)
		}
		insts := m.Instances("count")
		for i, v := range insts {
			kr, _ := m.Routing("count").RangeOf(v)
			cp := &state.Checkpoint{
				Instance:   v,
				Seq:        1,
				Processing: &state.Processing{},
				Buffer:     state.NewBuffer(),
				OutClock:   int64(100 * (i + 1)),
				Acks:       map[plan.InstanceID]int64{up: int64(10 + i)},
			}
			var kv state.RunBuilder
			for j := 0; j < 6; j++ {
				k := kr.Lo + stream.Key(uint64(j)*(kr.Width()/6))
				kv.Append(k, []byte{byte(j)})
				cp.Buffer.Append(inst("sink", 1), stream.Tuple{TS: int64(j + 1), Key: k})
			}
			cp.Processing.KV = kv.Run()
			host, _ := m.BackupTarget(v)
			if err := m.Backups().Store(host, cp); err != nil {
				t.Fatal(err)
			}
		}
		return m, insts
	}
	cases := []struct {
		name    string
		victims int
		plan    func(m *Manager, vs []plan.InstanceID) (*Transition, error)
		pi      int
	}{
		{"recovery 1→1", 1, func(m *Manager, vs []plan.InstanceID) (*Transition, error) { return m.PlanRecovery(vs[0], 1) }, 1},
		{"scale out 1→3", 1, func(m *Manager, vs []plan.InstanceID) (*Transition, error) { return m.PlanReplace(vs[0], 3) }, 3},
		{"merge 2→1", 2, func(m *Manager, vs []plan.InstanceID) (*Transition, error) { return m.Plan(vs, 1, false) }, 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m, victims := seed(t, c.victims)
			tp, err := c.plan(m, victims)
			if err != nil {
				t.Fatal(err)
			}
			if len(tp.NewInstances) != c.pi || len(tp.Checkpoints) != c.pi {
				t.Fatalf("plan = %+v", tp)
			}
			if tp.Merge() != (c.victims > 1) {
				t.Errorf("Merge() = %v for %d victims", tp.Merge(), c.victims)
			}
			// The graph swapped victims for freshly numbered instances.
			for _, v := range victims {
				if m.Live(v) {
					t.Errorf("victim %v still live", v)
				}
				if _, _, ok := m.Backups().Latest(v); ok {
					t.Errorf("victim %v backup not released", v)
				}
			}
			for i, ni := range tp.NewInstances {
				if ni.Part != c.victims+i+1 || !m.Live(ni) {
					t.Errorf("new instance %v: want fresh live partition %d", ni, c.victims+i+1)
				}
			}
			if got := m.Parallelism("count"); got != c.pi {
				t.Errorf("Parallelism = %d, want %d", got, c.pi)
			}
			// Routing still tiles the key space (NewRoutingFromEntries
			// validates the tiling) and the manager installed it.
			if _, err := state.NewRoutingFromEntries(tp.Routing.Entries()); err != nil {
				t.Errorf("routing does not tile: %v", err)
			}
			if got := m.Routing("count"); len(got.Targets()) != c.pi || got.String() != tp.Routing.String() {
				t.Errorf("manager routing = %v, plan routing = %v", got, tp.Routing)
			}
			// One stored checkpoint per new instance, holding exactly the
			// keys of its range; no key lost.
			keys := 0
			for i, ni := range tp.NewInstances {
				stored, _, ok := m.Backups().Latest(ni)
				if !ok || stored != tp.Checkpoints[i] {
					t.Errorf("no initial backup for %v", ni)
				}
				kr, ok := tp.Routing.RangeOf(ni)
				if !ok {
					t.Fatalf("%v has no routing entry", ni)
				}
				for k := range tp.Checkpoints[i].Processing.KV.All() {
					keys++
					if !kr.Contains(k) {
						t.Errorf("key %d outside %v's range %v", k, ni, kr)
					}
				}
			}
			if keys != 6*c.victims {
				t.Errorf("plan holds %d keys, want %d", keys, 6*c.victims)
			}
			// Trims equal the victims' final acknowledgement positions.
			if len(tp.Trims) != c.victims {
				t.Fatalf("Trims = %v", tp.Trims)
			}
			for i, tr := range tp.Trims {
				if want := (Trim{Up: up, Owner: victims[i], TS: int64(10 + i)}); tr != want {
					t.Errorf("Trims[%d] = %v, want %v", i, tr, want)
				}
			}
			// Watermark inheritance is the 1→1 shape's alone.
			if c.victims == 1 && c.pi == 1 {
				if len(tp.Inherit) != 1 || tp.Inherit[0] != (Inherit{Old: victims[0], New: tp.NewInstances[0]}) {
					t.Errorf("Inherit = %v", tp.Inherit)
				}
			} else if len(tp.Inherit) != 0 {
				t.Errorf("Inherit = %v for %d→%d", tp.Inherit, c.victims, c.pi)
			}
			// Every victim's retained output survives in the plan: a lone
			// replacement of a lone victim keeps it as its own buffer (it
			// inherits the victim's watermark); otherwise the first
			// replacement keeps it as legacy buffers under the victims'
			// ORIGINAL identities.
			from := make(map[plan.InstanceID]int)
			for _, cp := range tp.Checkpoints {
				for r := range state.DownstreamReplay(cp, func(plan.OpID) *state.Routing { return nil }) {
					from[r.From]++
				}
			}
			want := map[plan.InstanceID]int{tp.NewInstances[0]: 6}
			if c.pi > 1 {
				want = map[plan.InstanceID]int{victims[0]: 6}
			}
			if c.victims > 1 {
				want = map[plan.InstanceID]int{victims[0]: 6, victims[1]: 6}
				if tp.Checkpoints[0].OutClock != 200 {
					t.Errorf("merged OutClock = %d, want the victims' maximum", tp.Checkpoints[0].OutClock)
				}
			}
			if len(from) != len(want) {
				t.Errorf("replay senders = %v, want %v", from, want)
			}
			for id, n := range want {
				if from[id] != n {
					t.Errorf("replay from %v = %d tuples, want %d", id, from[id], n)
				}
			}
		})
	}
}

func TestPlanReplaceGuards(t *testing.T) {
	m, err := NewManager(wordQuery())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.PlanReplace(inst("count", 1), 0); err == nil {
		t.Error("pi=0 accepted")
	}
	if _, err := m.PlanReplace(inst("src", 1), 2); err == nil {
		t.Error("source replaced")
	}
	if _, err := m.PlanReplace(inst("sink", 1), 2); err == nil {
		t.Error("sink replaced")
	}
	if _, err := m.PlanReplace(inst("nosuch", 1), 2); err == nil {
		t.Error("unknown op replaced")
	}
	if _, err := m.PlanReplace(inst("count", 9), 2); err == nil {
		t.Error("dead instance replaced")
	}
	// Stateful operator without a backup cannot be replaced.
	_, err = m.PlanReplace(inst("count", 1), 2)
	if err == nil || !strings.Contains(err.Error(), "no checkpoint") {
		t.Errorf("missing-backup error = %v", err)
	}
}

func TestPlanReplaceStatelessNoBackupNeeded(t *testing.T) {
	m, err := NewManager(wordQuery())
	if err != nil {
		t.Fatal(err)
	}
	p, err := m.PlanReplace(inst("split", 1), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.NewInstances) != 3 {
		t.Fatalf("plan = %+v", p)
	}
	for _, cp := range p.Checkpoints {
		if cp.Processing.KV.Len() != 0 {
			t.Error("stateless replacement carries state")
		}
	}
}

// TestPlanReplaceStoresEncodedBytes: the parts a scale out stores count
// toward the backup store's bytes as what their processing sections
// encode to plus 16 bytes per buffered tuple. The victim's state is a
// captured run, so its key-range parts keep a cell table.
func TestPlanReplaceStoresEncodedBytes(t *testing.T) {
	m, err := NewManager(wordQuery())
	if err != nil {
		t.Fatal(err)
	}
	victim := inst("count", 1)
	st := state.NewStore()
	counts := state.NewValue[int64](st, "counts", state.Int64Codec{})
	cp := &state.Checkpoint{Instance: victim, Seq: 1, Processing: &state.Processing{}, Buffer: state.NewBuffer()}
	for i := range 1000 {
		k := stream.Key(stream.Mix64(uint64(i)))
		counts.Set(k, int64(i))
		if i%100 == 0 {
			cp.Buffer.Append(inst("sink", 1), stream.Tuple{TS: int64(i + 1), Key: k})
		}
	}
	if cp.Processing.KV, err = st.TakeCheckpoint(); err != nil {
		t.Fatal(err)
	}
	host, _ := m.BackupTarget(victim)
	if err := m.Backups().Store(host, cp); err != nil {
		t.Fatal(err)
	}
	tp, err := m.PlanReplace(victim, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, part := range tp.Checkpoints {
		if part.Processing.KV.Len() == 0 {
			t.Fatalf("part %v holds no keys", part.Instance)
		}
		// The run's Size is its encoded length (state's TestProcessingSize).
		want += part.Processing.KV.Size() + 16*part.Buffer.Len()
		for _, b := range part.Legacy {
			want += 16 * b.Len()
		}
	}
	if got := m.Backups().Bytes(); got != want {
		t.Errorf("backup store holds %d bytes, the parts encode to %d", got, want)
	}
}

func TestPlanReplaceMaxParallelism(t *testing.T) {
	q := wordQuery()
	q.Op("count").MaxParallelism = 2
	m, err := NewManager(q)
	if err != nil {
		t.Fatal(err)
	}
	victim := inst("count", 1)
	host, _ := m.BackupTarget(victim)
	if err := m.Backups().Store(host, mkCheckpoint(victim, 4)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.PlanReplace(victim, 3); err == nil {
		t.Error("exceeding max parallelism accepted")
	}
	if _, err := m.PlanReplace(victim, 2); err != nil {
		t.Errorf("allowed scale out rejected: %v", err)
	}
}

// TestValidateMergeGuards: ValidateMerge is the admission check every
// runtime runs before it stops a victim.
func TestValidateMergeGuards(t *testing.T) {
	m, err := NewManager(wordQuery())
	if err != nil {
		t.Fatal(err)
	}
	for name, victims := range map[string][]plan.InstanceID{
		"single victim":    {inst("count", 1)},
		"cross operator":   {inst("count", 1), inst("split", 1)},
		"duplicate victim": {inst("count", 1), inst("count", 1)},
		"dead sibling":     {inst("count", 1), inst("count", 9)},
		"source":           {inst("src", 1), inst("src", 2)},
		"unknown operator": {inst("nosuch", 1), inst("nosuch", 2)},
	} {
		if err := m.ValidateMerge(victims); err == nil {
			t.Errorf("ValidateMerge accepted %s", name)
		}
	}
}

// TestValidateMergeAdjacency: victims must own adjacent key ranges.
func TestValidateMergeAdjacency(t *testing.T) {
	q := wordQuery()
	q.Op("count").InitialParallelism = 3
	m, err := NewManager(q)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.ValidateMerge([]plan.InstanceID{inst("count", 1), inst("count", 3)}); err == nil {
		t.Error("non-adjacent victims accepted")
	}
	if err := m.ValidateMerge([]plan.InstanceID{inst("count", 3), inst("count", 2)}); err != nil {
		t.Errorf("adjacent victims in descending order rejected: %v", err)
	}
}

func TestHandleHostFailure(t *testing.T) {
	m, err := NewManager(wordQuery())
	if err != nil {
		t.Fatal(err)
	}
	victim := inst("count", 1)
	host, _ := m.BackupTarget(victim)
	if err := m.Backups().Store(host, mkCheckpoint(victim, 3)); err != nil {
		t.Fatal(err)
	}
	lost := m.HandleHostFailure(host)
	if len(lost) != 1 || lost[0] != victim {
		t.Errorf("lost = %v", lost)
	}
	// Now the victim cannot be replaced until it re-checkpoints.
	if _, err := m.PlanReplace(victim, 1); err == nil {
		t.Error("replace succeeded with lost backup")
	}
}

// TestPlanRecoveryFallbackGating: the empty-checkpoint fallback engages
// only when planning failed specifically for lack of a checkpoint; other
// planning errors must neither store the always-newest sentinel (which
// would block every future real checkpoint of a live instance) nor leave
// one behind when the retry fails.
func TestPlanRecoveryFallbackGating(t *testing.T) {
	q := wordQuery()
	q.Op("count").MaxParallelism = 1
	m, err := NewManager(q)
	if err != nil {
		t.Fatal(err)
	}
	victim := inst("count", 1)

	// No backup exists and pi exceeds max parallelism: planning fails
	// on max parallelism, NOT on the missing checkpoint.
	if _, err := m.PlanRecovery(victim, 2); err == nil {
		t.Fatal("PlanRecovery beyond max parallelism accepted")
	}
	if _, _, ok := m.Backups().Latest(victim); ok {
		t.Fatal("fallback stored a sentinel checkpoint despite a non-checkpoint planning error")
	}

	// A later real checkpoint must be storable (no poisoned sentinel).
	host, err := m.BackupTarget(victim)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Backups().Store(host, mkCheckpoint(victim, 4)); err != nil {
		t.Fatalf("real checkpoint rejected after failed recovery attempt: %v", err)
	}

	// With a checkpoint present, recovery for a missing-checkpoint-free
	// error path restores the REAL state.
	rp, err := m.PlanRecovery(victim, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := rp.Checkpoints[0].Processing.KV.Len(); got != 4 {
		t.Errorf("recovered checkpoint has %d keys, want 4 (real state)", got)
	}
}

// TestPlanRecoveryEmptyFallback: a genuine pre-first-backup failure
// recovers from an empty checkpoint.
func TestPlanRecoveryEmptyFallback(t *testing.T) {
	m, err := NewManager(wordQuery())
	if err != nil {
		t.Fatal(err)
	}
	victim := inst("count", 1)
	rp, err := m.PlanRecovery(victim, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := rp.Checkpoints[0].Processing.KV.Len(); got != 0 {
		t.Errorf("empty-state recovery has %d keys", got)
	}
}

// TestBackupStoreApplyDelta: a delta handed to Store folds into the
// stored base exactly once per sequence step; any mismatch (no base,
// moved host, sequence gap) is ErrNoBase so the shipper falls back to a
// full checkpoint. ApplyDelta, the old form, is the same Store.
func TestBackupStoreApplyDelta(t *testing.T) {
	s := NewBackupStore()
	owner := inst("count", 1)
	host := inst("split", 1)
	base := mkCheckpoint(owner, 4)

	mkDelta := func(baseSeq, seq uint64) *state.DeltaCheckpoint {
		var changed state.RunBuilder
		changed.Append(7, []byte{42})
		return &state.DeltaCheckpoint{
			Instance: owner,
			Delta: &state.Delta{
				Base:    baseSeq,
				Seq:     seq,
				Changed: changed.Run(),
				Deleted: []stream.Key{0},
			},
			Buffer:   state.NewBuffer(),
			OutClock: int64(10 * seq),
			Acks:     map[plan.InstanceID]int64{host: int64(10 * seq)},
		}
	}
	store := func(host plan.InstanceID, dc *state.DeltaCheckpoint) error { return s.Store(host, dc.Checkpoint()) }

	// No base stored yet.
	if err := store(host, mkDelta(1, 2)); !errors.Is(err, ErrNoBase) || !strings.Contains(err.Error(), "no checkpoint stored") {
		t.Fatalf("apply without base: %v", err)
	}
	if err := s.Store(host, base); err != nil {
		t.Fatal(err)
	}
	// Sequence gap.
	if err := store(host, mkDelta(5, 6)); !errors.Is(err, ErrNoBase) || !strings.Contains(err.Error(), "delta base") {
		t.Fatalf("apply with gap: %v", err)
	}
	// Wrong host.
	if err := store(inst("split", 2), mkDelta(1, 2)); !errors.Is(err, ErrNoBase) || !strings.Contains(err.Error(), "lives at") {
		t.Fatalf("apply at wrong host: %v", err)
	}
	// Consecutive applies fold.
	if err := store(host, mkDelta(1, 2)); err != nil {
		t.Fatal(err)
	}
	if err := s.ApplyDelta(host, mkDelta(2, 3)); err != nil {
		t.Fatal(err)
	}
	cp, storedHost, ok := s.Latest(owner)
	if !ok || storedHost != host {
		t.Fatal("folded checkpoint missing")
	}
	if cp.Seq != 3 || cp.OutClock != 30 {
		t.Errorf("folded seq/clock = %d/%d", cp.Seq, cp.OutClock)
	}
	if v, ok := cp.Processing.KV.Get(7); !ok || v[0] != 42 {
		t.Error("changed key not folded")
	}
	if _, ok := cp.Processing.KV.Get(0); ok {
		t.Error("deleted key survived the fold")
	}
	// The original base was never mutated (planners may hold it).
	if _, ok := base.Processing.KV.Get(0); !ok || base.Seq != 1 {
		t.Error("stored base mutated in place")
	}
	ship := s.ShipStats()
	if ship.Fulls != 1 || ship.Deltas != 2 || ship.DeltaBytes == 0 {
		t.Errorf("ship stats = %+v", ship)
	}
}
