package dist_test

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"seep/internal/controlplane"
	"seep/internal/core"
	"seep/internal/dist"
	"seep/internal/engine"
	"seep/internal/plan"
	"seep/internal/state"
)

// durableCluster is a cluster whose coordinator journals every
// control-plane mutation, plus what a cold-standby coordinator needs to
// take over: the journal directory and the dead coordinator's address.
type durableCluster struct {
	*cluster
	reg  testRegistry
	cfg  dist.Config
	addr string
}

func startDurableCluster(t *testing.T, reg testRegistry, n int, hook func(controlplane.Kind) bool, mutate ...func(*dist.Config)) *durableCluster {
	t.Helper()
	codec := state.GobPayloadCodec{}
	cl := &cluster{}
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		w, err := dist.NewWorker("127.0.0.1:0", reg, codec)
		if err != nil {
			t.Fatal(err)
		}
		cl.workers = append(cl.workers, w)
		addrs[i] = w.Addr()
	}
	cfg := dist.Config{
		Addr:              "127.0.0.1:0",
		Codec:             codec,
		Topology:          "wordcount",
		Engine:            engine.Config{CheckpointInterval: 100 * time.Millisecond},
		DetectDelay:       200 * time.Millisecond,
		RecoveryPi:        1,
		TransitionTimeout: 3 * time.Second,
		ControlPlaneDir:   t.TempDir(),
		JournalHook:       hook,
	}
	for _, m := range mutate {
		m(&cfg)
	}
	coord, err := dist.NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cl.coord = coord
	if err := coord.Deploy(reg.q, addrs); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cl.coord.Close()
		for _, w := range cl.workers {
			w.Kill()
		}
	})
	return &durableCluster{cluster: cl, reg: reg, cfg: cfg, addr: coord.Addr()}
}

// rebirth replays the journal into a fresh coordinator listening on the
// dead one's address (restart-in-place: orphaned workers redial exactly
// there) and swaps it into the cluster. The crash hook never carries
// over — a reborn coordinator must not re-crash while rolling back.
func (dc *durableCluster) rebirth(t *testing.T) {
	t.Helper()
	cfg := dc.cfg
	cfg.Addr = dc.addr
	cfg.JournalHook = nil
	coord, err := dist.RecoverCoordinator(cfg, dc.reg.q)
	if err != nil {
		t.Fatalf("RecoverCoordinator: %v", err)
	}
	dc.coord = coord
}

// settle waits until the coordinator has at least want recovery records
// and no queued or in-flight transitions.
func (dc *durableCluster) settle(t *testing.T, want int, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		if len(dc.coord.Manager().Records()) >= want && dc.coord.Pending() == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("coordinator did not settle: records=%v errs=%v pending=%d",
				dc.coord.Manager().Records(), dc.coord.Errors(), dc.coord.Pending())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func (dc *durableCluster) assertCounts(t *testing.T, want int64) {
	t.Helper()
	totals := make(map[string]int64)
	for _, inst := range dc.coord.Manager().Instances("count") {
		c := dc.counterOf(t, inst)
		for i := 0; i < 10; i++ {
			w := fmt.Sprintf("w%02d", i)
			totals[w] += c.Count(w)
		}
	}
	for w, n := range totals {
		if n != want {
			t.Errorf("total Count(%s) = %d, want %d", w, n, want)
		}
	}
}

// TestDistributedCoordinatorFailover kills the coordinator mid-job,
// streams through its death, restarts it from the journal on the same
// address and proves the job neither lost nor duplicated a tuple — then
// kills a worker to prove the reborn coordinator's failure detector is
// re-armed.
func TestDistributedCoordinatorFailover(t *testing.T) {
	reg := wordcountRegistry()
	dc := startDurableCluster(t, reg, 3, nil)
	if err := dc.coord.StartJob(); err != nil {
		t.Fatal(err)
	}
	src := plan.InstanceID{Op: "src", Part: 1}
	srcWorker := dc.hostOf(t, src)
	if err := srcWorker.Engine().InjectBatch(src, 300, parityGen); err != nil {
		t.Fatal(err)
	}
	dc.quiesce(t, 300*time.Millisecond, 10*time.Second)
	if st := dc.coord.ControlPlaneStats(); st.JournalAppends < 2 {
		t.Fatalf("JournalAppends = %d before kill, want deploy+start at least", st.JournalAppends)
	}

	// kill -9: no stop messages, no goodbye. Workers keep streaming
	// worker-to-worker, refusing checkpoint ships while orphaned.
	dc.coord.Close()
	if err := srcWorker.Engine().InjectBatch(src, 300, parityGen); err != nil {
		t.Fatal(err)
	}
	dc.quiesce(t, 300*time.Millisecond, 10*time.Second)

	dc.rebirth(t)
	st := dc.coord.ControlPlaneStats()
	if st.ReplayRecords < 2 {
		t.Errorf("ReplayRecords = %d, want the journaled deploy+start at least", st.ReplayRecords)
	}
	if st.Reattached != 3 {
		t.Errorf("Reattached = %d, want 3", st.Reattached)
	}
	dc.settle(t, 0, 10*time.Second)
	dc.quiesce(t, 300*time.Millisecond, 10*time.Second)
	if err := srcWorker.Engine().InjectBatch(src, 300, parityGen); err != nil {
		t.Fatal(err)
	}
	dc.quiesce(t, 300*time.Millisecond, 10*time.Second)
	dc.assertCounts(t, 90)
	if recs := dc.coord.Manager().Records(); len(recs) != 0 {
		t.Errorf("failover with healthy workers should not recover anything: %v", recs)
	}
	if errs := dc.coord.Errors(); len(errs) != 0 {
		t.Errorf("Errors = %v", errs)
	}

	// The reborn coordinator's heartbeat detector must work: kill the
	// worker hosting the counter and expect a normal recovery.
	victim := dc.coord.Manager().Instances("count")[0]
	if err := dc.coord.Fail(victim); err != nil {
		t.Fatal(err)
	}
	dc.settle(t, 1, 10*time.Second)
	dc.quiesce(t, 300*time.Millisecond, 10*time.Second)
	if err := srcWorker.Engine().InjectBatch(src, 300, parityGen); err != nil {
		t.Fatal(err)
	}
	dc.quiesce(t, 300*time.Millisecond, 10*time.Second)
	dc.assertCounts(t, 120)
	rec := dc.coord.Manager().Records()[0]
	if !rec.Failure || rec.Victim != victim {
		t.Errorf("post-failover recovery record = %+v", rec)
	}
}

// TestRebirthRefreshesSurvivorCheckpoints: a reborn coordinator collects
// the survivors' state one way, through reconcile's barrier. With the
// periodic checkpoint an hour away, every surviving stateful instance's
// stored checkpoint after the rebirth is newer than the one the dead
// coordinator left in the durable store.
func TestRebirthRefreshesSurvivorCheckpoints(t *testing.T) {
	reg := wordcountRegistry()
	reg.q.Op("count").InitialParallelism = 2
	dc := startDurableCluster(t, reg, 3, nil, func(c *dist.Config) { c.Engine.CheckpointInterval = time.Hour })
	if err := dc.coord.StartJob(); err != nil {
		t.Fatal(err)
	}
	src := plan.InstanceID{Op: "src", Part: 1}
	if err := dc.hostOf(t, src).Engine().InjectBatch(src, 300, parityGen); err != nil {
		t.Fatal(err)
	}
	dc.quiesce(t, 300*time.Millisecond, 10*time.Second)
	counters := dc.coord.Manager().Instances("count")
	store := dc.coord.Manager().Backups()
	for _, inst := range counters {
		if err := dc.hostOf(t, inst).Engine().CheckpointFull(inst); err != nil {
			t.Fatal(err)
		}
		for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
			if _, _, ok := store.Latest(inst); ok {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("no checkpoint stored for %s", inst)
			}
		}
	}

	dc.coord.Close()
	disk, err := core.NewDurableStore(dc.cfg.ControlPlaneDir, state.GobPayloadCodec{})
	if err != nil {
		t.Fatal(err)
	}
	before := make(map[plan.InstanceID]uint64)
	for _, inst := range counters {
		cp, err := disk.Load(inst)
		if err != nil {
			t.Fatal(err)
		}
		before[inst] = cp.Seq
	}
	dc.rebirth(t)
	reborn := dc.coord.Manager().Backups()
	for _, inst := range counters {
		for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
			if cp, _, ok := reborn.Latest(inst); ok && cp.Seq > before[inst] {
				break
			}
			if time.Now().After(deadline) {
				cp, _, _ := reborn.Latest(inst)
				t.Fatalf("reborn coordinator holds %v for %s, want a seq above %d", cp, inst, before[inst])
			}
		}
	}
	if errs := dc.coord.Errors(); len(errs) != 0 {
		t.Errorf("Errors = %v", errs)
	}
}

// TestOrphanRoundsCaptureNothing: while its coordinator is down a
// worker's periodic checkpoint rounds capture nothing, so no full is
// captured only to be refused (at 100 ms rounds that was ten a second
// per instance), and the reborn coordinator still collects a newer
// checkpoint of every counter than the one its store reloaded.
func TestOrphanRoundsCaptureNothing(t *testing.T) {
	reg := wordcountRegistry()
	reg.q.Op("count").InitialParallelism = 2
	dc := startDurableCluster(t, reg, 3, nil)
	if err := dc.coord.StartJob(); err != nil {
		t.Fatal(err)
	}
	src := plan.InstanceID{Op: "src", Part: 1}
	if err := dc.hostOf(t, src).Engine().InjectBatch(src, 300, parityGen); err != nil {
		t.Fatal(err)
	}
	dc.quiesce(t, 300*time.Millisecond, 10*time.Second)
	counters := dc.coord.Manager().Instances("count")
	refused := func() (n uint64) {
		for _, w := range dc.workers {
			n += w.Stats().CheckpointsRefused
		}
		return n
	}

	dc.coord.Close()
	// Ships fail until the 200 ms detection orphans every worker; from
	// then on a second of rounds (ten) must refuse nothing.
	for deadline, before := time.Now().Add(5*time.Second), refused(); ; {
		time.Sleep(time.Second)
		got := refused()
		if got == before {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("orphaned workers still refuse full checkpoints 5 s after Close (%d in the last second), want none captured", got-before)
		}
		before = got
	}

	disk, err := core.NewDurableStore(dc.cfg.ControlPlaneDir, state.GobPayloadCodec{})
	if err != nil {
		t.Fatal(err)
	}
	stored := make(map[plan.InstanceID]uint64)
	for _, inst := range counters {
		cp, err := disk.Load(inst)
		if err != nil {
			t.Fatal(err)
		}
		stored[inst] = cp.Seq
	}
	dc.rebirth(t)
	reborn := dc.coord.Manager().Backups()
	for _, inst := range counters {
		for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
			if cp, _, ok := reborn.Latest(inst); ok && cp.Seq > stored[inst] {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("reborn coordinator holds no checkpoint of %s past seq %d", inst, stored[inst])
			}
		}
	}
	if errs := dc.coord.Errors(); len(errs) != 0 {
		t.Errorf("Errors = %v", errs)
	}
}

// TestDistributedDeltaCheckpointSurvivesCoordinatorFailover: with a
// durable control plane the coordinator persists what it folds a delta
// into, so the one reborn from the directory holds the counter's last
// delta, not just its base — and recovering the counter from it after a
// worker kill neither loses nor duplicates a tuple.
func TestDistributedDeltaCheckpointSurvivesCoordinatorFailover(t *testing.T) {
	reg := wordcountRegistry()
	dc := startDurableCluster(t, reg, 3, nil, func(c *dist.Config) { c.Engine.Incremental = true })
	if err := dc.coord.StartJob(); err != nil {
		t.Fatal(err)
	}
	src := plan.InstanceID{Op: "src", Part: 1}
	srcWorker := dc.hostOf(t, src)
	inject := func() {
		t.Helper()
		if err := srcWorker.Engine().InjectBatch(src, 300, parityGen); err != nil {
			t.Fatal(err)
		}
		dc.quiesce(t, 300*time.Millisecond, 10*time.Second)
	}
	inject()
	counter := dc.coord.Manager().Instances("count")[0]
	store := dc.coord.Manager().Backups()
	// Wait until the stored checkpoint is a fold, of the second delta
	// since the stream went idle or a later one. The counter is the one
	// managed-state instance, so ShipStats().Deltas counts its folds
	// alone: a look that finds its stored seq one past the last look's
	// and exactly one more delta stored finds a fold. Every tenth
	// checkpoint is full, so a full can be stored between two looks;
	// the looks go on past it.
	look := func() (seq, deltas uint64) {
		for {
			before := store.ShipStats()
			cp, _, ok := store.Latest(counter)
			if !ok {
				t.Fatal("no checkpoint stored for the counter")
			}
			if store.ShipStats() == before {
				return cp.Seq, before.Deltas
			}
		}
	}
	first := store.ShipStats().Deltas
	seq, deltas := look()
	for deadline := time.Now().Add(10 * time.Second); ; {
		if time.Now().After(deadline) {
			t.Fatalf("no delta folded on an idle stream: %+v", store.ShipStats())
		}
		time.Sleep(2 * time.Millisecond)
		s, d := look()
		if d >= first+2 && s == seq+1 && d == deltas+1 {
			break
		}
		seq, deltas = s, d
	}

	dc.coord.Close()
	folded, _, ok := store.Latest(counter)
	if !ok {
		t.Fatal("no checkpoint stored for the counter")
	}
	disk, err := core.NewDurableStore(dc.cfg.ControlPlaneDir, state.GobPayloadCodec{})
	if err != nil {
		t.Fatal(err)
	}
	onDisk, err := disk.Load(counter)
	if err != nil {
		t.Fatal(err)
	}
	if onDisk.Seq != folded.Seq || !onDisk.Processing.KV.Equal(folded.Processing.KV) {
		t.Fatalf("persisted checkpoint is seq %d, the last fold seq %d", onDisk.Seq, folded.Seq)
	}
	dc.rebirth(t)
	if cp, _, ok := dc.coord.Manager().Backups().Latest(counter); !ok || cp.Seq < folded.Seq {
		t.Fatalf("reborn coordinator holds %v for the counter, want seq %d or later", cp, folded.Seq)
	}
	dc.settle(t, 0, 10*time.Second)
	dc.quiesce(t, 300*time.Millisecond, 10*time.Second)
	inject()

	if err := dc.coord.Fail(counter); err != nil {
		t.Fatal(err)
	}
	dc.settle(t, 1, 10*time.Second)
	dc.quiesce(t, 300*time.Millisecond, 10*time.Second)
	inject()
	dc.assertCounts(t, 90)
	if errs := dc.coord.Errors(); len(errs) != 0 {
		t.Errorf("Errors = %v", errs)
	}
}

// TestCoordinatorCrashMidScaleOutRollsBack kills the coordinator at the
// worst possible instant of a scale-out — the split is planned and
// journaled, the victim is retired everywhere, but no worker has heard
// of the replacements. The reborn coordinator must roll the in-doubt
// transition back through the recovery path so no key range is
// stranded.
func TestCoordinatorCrashMidScaleOutRollsBack(t *testing.T) {
	reg := wordcountRegistry()
	var armed atomic.Bool
	dc := startDurableCluster(t, reg, 3, func(k controlplane.Kind) bool {
		return armed.Load() && k == controlplane.RecPlanned
	})
	if err := dc.coord.StartJob(); err != nil {
		t.Fatal(err)
	}
	src := plan.InstanceID{Op: "src", Part: 1}
	srcWorker := dc.hostOf(t, src)
	if err := srcWorker.Engine().InjectBatch(src, 300, parityGen); err != nil {
		t.Fatal(err)
	}
	dc.quiesce(t, 300*time.Millisecond, 10*time.Second)

	victim := dc.coord.Manager().Instances("count")[0]
	armed.Store(true)
	err := dc.coord.ScaleOut(victim, 2)
	if err == nil || !strings.Contains(err.Error(), "closed") {
		t.Fatalf("ScaleOut across a coordinator crash returned %v, want closed", err)
	}
	armed.Store(false)

	dc.rebirth(t)
	// Both planned-but-undeployed partitions roll back through recovery.
	dc.settle(t, 2, 15*time.Second)
	dc.quiesce(t, 300*time.Millisecond, 10*time.Second)
	insts := dc.coord.Manager().Instances("count")
	if len(insts) != 2 {
		t.Fatalf("Instances(count) after rollback = %v, want 2 partitions", insts)
	}
	for _, rec := range dc.coord.Manager().Records() {
		if !rec.Failure {
			t.Errorf("rollback record not a recovery: %+v", rec)
		}
	}
	if err := srcWorker.Engine().InjectBatch(src, 300, parityGen); err != nil {
		t.Fatal(err)
	}
	dc.quiesce(t, 300*time.Millisecond, 10*time.Second)
	dc.assertCounts(t, 60)
}

// TestCoordinatorCrashMidScaleInRollsBack crashes the coordinator right
// after a merge is planned and journaled: both victims are final-retired
// everywhere and the merged instance exists only in the journal and the
// durable store. Replay must reroute with the journaled trims and
// recover the merged instance so the victims' key ranges reappear.
func TestCoordinatorCrashMidScaleInRollsBack(t *testing.T) {
	reg := wordcountRegistry()
	var armed atomic.Bool
	dc := startDurableCluster(t, reg, 3, func(k controlplane.Kind) bool {
		return armed.Load() && k == controlplane.RecPlanned
	})
	if err := dc.coord.StartJob(); err != nil {
		t.Fatal(err)
	}
	src := plan.InstanceID{Op: "src", Part: 1}
	srcWorker := dc.hostOf(t, src)
	if err := srcWorker.Engine().InjectBatch(src, 200, parityGen); err != nil {
		t.Fatal(err)
	}
	dc.quiesce(t, 300*time.Millisecond, 10*time.Second)
	if err := dc.coord.ScaleOut(dc.coord.Manager().Instances("count")[0], 2); err != nil {
		t.Fatal(err)
	}
	dc.quiesce(t, 300*time.Millisecond, 10*time.Second)
	if err := srcWorker.Engine().InjectBatch(src, 200, parityGen); err != nil {
		t.Fatal(err)
	}
	dc.quiesce(t, 300*time.Millisecond, 10*time.Second)

	siblings := dc.coord.Manager().Instances("count")
	if len(siblings) != 2 {
		t.Fatalf("Instances(count) = %v, want 2", siblings)
	}
	armed.Store(true)
	err := dc.coord.ScaleIn(siblings)
	if err == nil || !strings.Contains(err.Error(), "closed") {
		t.Fatalf("ScaleIn across a coordinator crash returned %v, want closed", err)
	}
	armed.Store(false)

	dc.rebirth(t)
	dc.settle(t, 1, 15*time.Second)
	dc.quiesce(t, 300*time.Millisecond, 10*time.Second)
	merged := dc.coord.Manager().Instances("count")
	if len(merged) != 1 {
		t.Fatalf("Instances(count) after rollback = %v, want 1 merged instance", merged)
	}
	if err := srcWorker.Engine().InjectBatch(src, 200, parityGen); err != nil {
		t.Fatal(err)
	}
	dc.quiesce(t, 300*time.Millisecond, 10*time.Second)
	dc.assertCounts(t, 60)
}

// TestCoordinatorCrashAtIntentIsNoOp crashes the coordinator right
// after a scale-out intent is journaled, before the victim hears its
// retire. The in-doubt transition never changed anything; replay must
// roll it back to a no-op and leave the running instance alone.
func TestCoordinatorCrashAtIntentIsNoOp(t *testing.T) {
	reg := wordcountRegistry()
	var armed atomic.Bool
	dc := startDurableCluster(t, reg, 3, func(k controlplane.Kind) bool {
		return armed.Load() && k == controlplane.RecIntent
	})
	if err := dc.coord.StartJob(); err != nil {
		t.Fatal(err)
	}
	src := plan.InstanceID{Op: "src", Part: 1}
	srcWorker := dc.hostOf(t, src)
	if err := srcWorker.Engine().InjectBatch(src, 300, parityGen); err != nil {
		t.Fatal(err)
	}
	dc.quiesce(t, 300*time.Millisecond, 10*time.Second)

	victim := dc.coord.Manager().Instances("count")[0]
	armed.Store(true)
	if err := dc.coord.ScaleOut(victim, 2); err == nil {
		t.Fatal("ScaleOut across a coordinator crash succeeded")
	}
	armed.Store(false)

	dc.rebirth(t)
	dc.settle(t, 0, 10*time.Second)
	dc.quiesce(t, 300*time.Millisecond, 10*time.Second)
	if insts := dc.coord.Manager().Instances("count"); len(insts) != 1 || insts[0] != victim {
		t.Fatalf("Instances(count) = %v, want untouched %v", insts, victim)
	}
	if recs := dc.coord.Manager().Records(); len(recs) != 0 {
		t.Errorf("no-op rollback produced records: %v", recs)
	}
	if err := srcWorker.Engine().InjectBatch(src, 300, parityGen); err != nil {
		t.Fatal(err)
	}
	dc.quiesce(t, 300*time.Millisecond, 10*time.Second)
	dc.assertCounts(t, 60)
}

// TestFailedPersistAbortsScaleOut: a replacement checkpoint that cannot
// be persisted fails the Place before the planned record, so the journal
// never names state that is not on disk. The scale out aborts to
// recovery: each stranded replacement is stopped on its worker and
// recovered from the manager's store, and the counts stay exact.
func TestFailedPersistAbortsScaleOut(t *testing.T) {
	reg := wordcountRegistry()
	var (
		mu    sync.Mutex
		armed bool
		kinds []controlplane.Kind
	)
	dc := startDurableCluster(t, reg, 3, func(k controlplane.Kind) bool {
		mu.Lock()
		defer mu.Unlock()
		if armed {
			kinds = append(kinds, k)
		}
		return false
	})
	if err := dc.coord.StartJob(); err != nil {
		t.Fatal(err)
	}
	src := plan.InstanceID{Op: "src", Part: 1}
	srcWorker := dc.hostOf(t, src)
	if err := srcWorker.Engine().InjectBatch(src, 300, parityGen); err != nil {
		t.Fatal(err)
	}
	dc.quiesce(t, 300*time.Millisecond, 10*time.Second)

	victim := dc.coord.Manager().Instances("count")[0]
	// A directory where a replacement's temporary file goes fails its
	// write; a read-only mode would not stop a process running as root.
	// The scale out names its two replacements from the next parts.
	failing := []plan.InstanceID{{Op: "count", Part: victim.Part + 1}, {Op: "count", Part: victim.Part + 2}}
	for _, r := range failing {
		if err := os.Mkdir(filepath.Join(dc.cfg.ControlPlaneDir, fmt.Sprintf("%s-%d.ckpt.tmp", r.Op, r.Part)), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	mu.Lock()
	armed = true
	mu.Unlock()
	err := dc.coord.ScaleOut(victim, 2)
	if err == nil || !strings.Contains(err.Error(), "persist checkpoint") {
		t.Fatalf("ScaleOut with an unwritable replacement file returned %v, want a persist error", err)
	}
	dc.settle(t, 2, 15*time.Second)
	mu.Lock()
	got := slices.Clone(kinds)
	mu.Unlock()
	if len(got) < 2 || got[0] != controlplane.RecIntent || got[1] != controlplane.RecAbort {
		t.Fatalf("journal after the failed persist = %v, want the scale out's intent closed by its abort with no planned record", got)
	}

	insts := dc.coord.Manager().Instances("count")
	if len(insts) != 2 {
		t.Fatalf("Instances(count) after the fallback = %v, want 2 partitions", insts)
	}
	for _, inst := range insts {
		if inst == victim || slices.Contains(failing, inst) {
			t.Errorf("Instances(count) = %v still holds %s", insts, inst)
		}
	}
	for _, rec := range dc.coord.Manager().Records() {
		if !rec.Failure {
			t.Errorf("fallback record not a recovery: %+v", rec)
		}
	}
	if err := srcWorker.Engine().InjectBatch(src, 300, parityGen); err != nil {
		t.Fatal(err)
	}
	dc.quiesce(t, 300*time.Millisecond, 10*time.Second)
	dc.assertCounts(t, 60)
}
