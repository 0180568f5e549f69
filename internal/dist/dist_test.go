package dist_test

import (
	"encoding/gob"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
	"weak"

	"seep/internal/dist"
	"seep/internal/engine"
	"seep/internal/operator"
	"seep/internal/plan"
	"seep/internal/state"
	"seep/internal/stream"
)

type testRegistry struct {
	q *plan.Query
	f map[plan.OpID]operator.Factory
}

func (r testRegistry) Lookup(string) (*plan.Query, map[plan.OpID]operator.Factory, []dist.SourceBinding, error) {
	return r.q, r.f, nil, nil
}

func wordcountRegistry() testRegistry {
	q := plan.NewQuery()
	q.AddOp(plan.OpSpec{ID: "src", Role: plan.RoleSource})
	q.AddOp(plan.OpSpec{ID: "split", Role: plan.RoleStateless})
	q.AddOp(plan.OpSpec{ID: "count", Role: plan.RoleStateful})
	q.AddOp(plan.OpSpec{ID: "sink", Role: plan.RoleSink})
	q.Connect("src", "split").Connect("split", "count").Connect("count", "sink")
	return testRegistry{q: q, f: map[plan.OpID]operator.Factory{
		"split": func() operator.Operator { return operator.WordSplitter() },
		"count": func() operator.Operator { return operator.NewWordCounter(0) },
	}}
}

func parityGen(i uint64) (stream.Key, any) {
	w := fmt.Sprintf("w%02d", i%10)
	return stream.KeyOfString(w), w
}

// cluster is a coordinator plus n loopback workers, every link a real
// TCP connection.
type cluster struct {
	coord   *dist.Coordinator
	workers []*dist.Worker
}

func startCluster(t *testing.T, reg testRegistry, n int) *cluster {
	return startClusterWith(t, reg, n, nil)
}

func startClusterWith(t *testing.T, reg testRegistry, n int, mutate func(*dist.Config)) *cluster {
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
		Addr:        "127.0.0.1:0",
		Codec:       codec,
		Topology:    "wordcount",
		Engine:      engine.Config{CheckpointInterval: 100 * time.Millisecond},
		DetectDelay: 200 * time.Millisecond,
		RecoveryPi:  1,
	}
	if mutate != nil {
		mutate(&cfg)
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
		coord.Close()
		for _, w := range cl.workers {
			w.Kill()
		}
	})
	return cl
}

// TestClosedCoordinatorIsCollected: a closed coordinator leaves nothing
// that keeps it reachable, so the collector frees it, its peers' write
// buffers and its store at once. Each stage of a deploy or start arms a
// TransitionTimeout timer, and one left armed past its stage held the
// whole coordinator for 10 s after Close.
func TestClosedCoordinatorIsCollected(t *testing.T) {
	reg := wordcountRegistry()
	codec := state.GobPayloadCodec{}
	addrs := make([]string, 3)
	for i := range addrs {
		w, err := dist.NewWorker("127.0.0.1:0", reg, codec)
		if err != nil {
			t.Fatal(err)
		}
		defer w.Kill()
		addrs[i] = w.Addr()
	}
	closed := func() weak.Pointer[dist.Coordinator] {
		coord, err := dist.NewCoordinator(dist.Config{Addr: "127.0.0.1:0", Codec: codec, Topology: "wordcount",
			Engine: engine.Config{CheckpointInterval: 100 * time.Millisecond}, DetectDelay: 200 * time.Millisecond, RecoveryPi: 1})
		if err != nil {
			t.Fatal(err)
		}
		if err := coord.Deploy(reg.q, addrs); err != nil {
			t.Fatal(err)
		}
		if err := coord.StartJob(); err != nil {
			t.Fatal(err)
		}
		coord.StopJob()
		coord.Close()
		return weak.Make(coord)
	}()
	for deadline := time.Now().Add(2 * time.Second); closed.Value() != nil; time.Sleep(20 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("a closed coordinator is still reachable 2 s after Close")
		}
		runtime.GC()
	}
}

// hostOf returns the in-process worker currently hosting inst.
func (cl *cluster) hostOf(t *testing.T, inst plan.InstanceID) *dist.Worker {
	t.Helper()
	addr := cl.coord.PlacementOf(inst)
	for _, w := range cl.workers {
		if w.Addr() == addr {
			return w
		}
	}
	t.Fatalf("no worker hosts %s (placement %q)", inst, addr)
	return nil
}

// quiesce waits until no worker engine processes tuples for settle.
func (cl *cluster) quiesce(t *testing.T, settle, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	last := cl.processed()
	lastChange := time.Now()
	for time.Now().Before(deadline) {
		if cl.coord.Pending() > 0 {
			lastChange = time.Now()
		}
		time.Sleep(settle / 4)
		cur := cl.processed()
		if cur != last {
			last = cur
			lastChange = time.Now()
			continue
		}
		if time.Since(lastChange) >= settle {
			return
		}
	}
	t.Fatalf("cluster did not quiesce within %v", timeout)
}

func (cl *cluster) processed() uint64 {
	var n uint64
	for _, w := range cl.workers {
		if eng := w.Engine(); eng != nil {
			n += eng.TotalProcessed()
		}
	}
	return n
}

func (cl *cluster) counterOf(t *testing.T, inst plan.InstanceID) *operator.WordCounter {
	t.Helper()
	w := cl.hostOf(t, inst)
	eng := w.Engine()
	if eng == nil {
		t.Fatalf("worker %s has no engine", w.Addr())
	}
	op := eng.OperatorOf(inst)
	wc, ok := op.(*operator.WordCounter)
	if !ok {
		t.Fatalf("OperatorOf(%v) = %T", inst, op)
	}
	return wc
}

// TestDistributedWordCount runs the wordcount pipeline across three
// worker processes' worth of loopback TCP and checks exact counts.
func TestDistributedWordCount(t *testing.T) {
	reg := wordcountRegistry()
	cl := startCluster(t, reg, 3)
	if err := cl.coord.StartJob(); err != nil {
		t.Fatal(err)
	}

	src := plan.InstanceID{Op: "src", Part: 1}
	srcWorker := cl.hostOf(t, src)
	if err := srcWorker.Engine().InjectBatch(src, 300, parityGen); err != nil {
		t.Fatal(err)
	}
	cl.quiesce(t, 300*time.Millisecond, 10*time.Second)

	count := cl.coord.Manager().Instances("count")[0]
	counter := cl.counterOf(t, count)
	for i := 0; i < 10; i++ {
		w := fmt.Sprintf("w%02d", i)
		if got := counter.Count(w); got != 30 {
			t.Errorf("Count(%s) = %d, want 30", w, got)
		}
	}
	// The pipeline crossed worker boundaries: transport moved frames.
	var stats uint64
	for _, w := range cl.workers {
		stats += w.Stats().Transport.FramesSent
	}
	if stats == 0 {
		t.Error("no frames crossed the wire — placement kept the pipeline local?")
	}
}

// TestDistributedRecoveryExactCounts kills the worker hosting the
// stateful counter mid-stream and asserts exact per-key counts after
// heartbeat-detected recovery — the distributed mirror of the in-process
// parity tests.
func TestDistributedRecoveryExactCounts(t *testing.T) {
	reg := wordcountRegistry()
	cl := startCluster(t, reg, 3)
	if err := cl.coord.StartJob(); err != nil {
		t.Fatal(err)
	}
	src := plan.InstanceID{Op: "src", Part: 1}
	srcWorker := cl.hostOf(t, src)

	if err := srcWorker.Engine().InjectBatch(src, 300, parityGen); err != nil {
		t.Fatal(err)
	}
	cl.quiesce(t, 300*time.Millisecond, 10*time.Second)

	victim := cl.coord.Manager().Instances("count")[0]
	if err := cl.coord.Fail(victim); err != nil {
		t.Fatal(err)
	}
	// Heartbeat detection + recovery transition.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if len(cl.coord.Manager().Records()) == 1 && cl.coord.Pending() == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("recovery did not complete: records=%v errs=%v pending=%d",
				cl.coord.Manager().Records(), cl.coord.Errors(), cl.coord.Pending())
		}
		time.Sleep(10 * time.Millisecond)
	}
	cl.quiesce(t, 300*time.Millisecond, 10*time.Second)

	if err := srcWorker.Engine().InjectBatch(src, 300, parityGen); err != nil {
		t.Fatal(err)
	}
	cl.quiesce(t, 300*time.Millisecond, 10*time.Second)

	insts := cl.coord.Manager().Instances("count")
	if len(insts) != 1 || insts[0] == victim {
		t.Fatalf("Instances(count) after recovery = %v (victim %v)", insts, victim)
	}
	counter := cl.counterOf(t, insts[0])
	for i := 0; i < 10; i++ {
		w := fmt.Sprintf("w%02d", i)
		if got := counter.Count(w); got != 60 {
			t.Errorf("Count(%s) = %d, want 60 (exactly once across worker failure)", w, got)
		}
	}
	rec := cl.coord.Manager().Records()[0]
	if !rec.Failure || rec.Victim != victim || rec.Pi != 1 {
		t.Errorf("record = %+v", rec)
	}
	if errs := cl.coord.Errors(); len(errs) != 0 {
		t.Errorf("Errors = %v", errs)
	}
}

// TestDistributedScaleOut splits the counter across workers via the
// coordinator's barrier → retire → reroute → deploy transition.
func TestDistributedScaleOut(t *testing.T) {
	reg := wordcountRegistry()
	cl := startCluster(t, reg, 3)
	if err := cl.coord.StartJob(); err != nil {
		t.Fatal(err)
	}
	src := plan.InstanceID{Op: "src", Part: 1}
	srcWorker := cl.hostOf(t, src)
	if err := srcWorker.Engine().InjectBatch(src, 200, parityGen); err != nil {
		t.Fatal(err)
	}
	cl.quiesce(t, 300*time.Millisecond, 10*time.Second)

	victim := cl.coord.Manager().Instances("count")[0]
	if err := cl.coord.ScaleOut(victim, 2); err != nil {
		t.Fatal(err)
	}
	cl.quiesce(t, 300*time.Millisecond, 10*time.Second)
	insts := cl.coord.Manager().Instances("count")
	if len(insts) != 2 {
		t.Fatalf("Instances(count) = %v, want 2 partitions", insts)
	}
	if err := srcWorker.Engine().InjectBatch(src, 200, parityGen); err != nil {
		t.Fatal(err)
	}
	cl.quiesce(t, 300*time.Millisecond, 10*time.Second)

	// Partitioned counters together hold every word exactly once.
	totals := make(map[string]int64)
	for _, inst := range insts {
		c := cl.counterOf(t, inst)
		for i := 0; i < 10; i++ {
			w := fmt.Sprintf("w%02d", i)
			totals[w] += c.Count(w)
		}
	}
	for w, n := range totals {
		if n != 40 {
			t.Errorf("total Count(%s) = %d, want 40", w, n)
		}
	}
	recs := cl.coord.Manager().Records()
	if len(recs) != 1 || recs[0].Failure || recs[0].Pi != 2 {
		t.Errorf("records = %+v", recs)
	}
}

// TestDistributedScaleIn grows the counter to two partitions, streams
// through both, merges them back via the coordinator's staged
// final-retire → plan → reroute(trim) → deploy transition, and asserts
// exact per-key counts plus a merge record. Scale-in also exercises the
// legacy-buffer trims: the merged instance carries the victims' buffers
// under their original identities until downstream acknowledges them.
func TestDistributedScaleIn(t *testing.T) {
	reg := wordcountRegistry()
	cl := startCluster(t, reg, 3)
	if err := cl.coord.StartJob(); err != nil {
		t.Fatal(err)
	}
	src := plan.InstanceID{Op: "src", Part: 1}
	srcWorker := cl.hostOf(t, src)
	if err := srcWorker.Engine().InjectBatch(src, 200, parityGen); err != nil {
		t.Fatal(err)
	}
	cl.quiesce(t, 300*time.Millisecond, 10*time.Second)

	if err := cl.coord.ScaleOut(cl.coord.Manager().Instances("count")[0], 2); err != nil {
		t.Fatal(err)
	}
	cl.quiesce(t, 300*time.Millisecond, 10*time.Second)
	if err := srcWorker.Engine().InjectBatch(src, 200, parityGen); err != nil {
		t.Fatal(err)
	}
	cl.quiesce(t, 300*time.Millisecond, 10*time.Second)

	siblings := cl.coord.Manager().Instances("count")
	if len(siblings) != 2 {
		t.Fatalf("Instances(count) = %v, want 2", siblings)
	}
	if err := cl.coord.ScaleIn(siblings); err != nil {
		t.Fatal(err)
	}
	cl.quiesce(t, 300*time.Millisecond, 10*time.Second)

	merged := cl.coord.Manager().Instances("count")
	if len(merged) != 1 {
		t.Fatalf("Instances(count) after merge = %v, want 1", merged)
	}
	if got := cl.coord.Manager().Merges(); got != 1 {
		t.Errorf("Merges() = %d, want 1", got)
	}
	if err := srcWorker.Engine().InjectBatch(src, 200, parityGen); err != nil {
		t.Fatal(err)
	}
	cl.quiesce(t, 300*time.Millisecond, 10*time.Second)

	counter := cl.counterOf(t, merged[0])
	for i := 0; i < 10; i++ {
		w := fmt.Sprintf("w%02d", i)
		if got := counter.Count(w); got != 60 {
			t.Errorf("Count(%s) = %d, want 60 (exactly once across grow+shrink over TCP)", w, got)
		}
	}
	var mergeRecs int
	for _, rec := range cl.coord.Manager().Records() {
		if rec.Merge {
			mergeRecs++
		}
	}
	if mergeRecs != 1 {
		t.Errorf("merge records = %d of %v", mergeRecs, cl.coord.Manager().Records())
	}
	if errs := cl.coord.Errors(); len(errs) != 0 {
		t.Errorf("Errors = %v", errs)
	}
}

// TestDistributedScaleInGuards: bad victim sets are rejected without
// wedging the coordinator loop.
func TestDistributedScaleInGuards(t *testing.T) {
	reg := wordcountRegistry()
	cl := startCluster(t, reg, 2)
	if err := cl.coord.StartJob(); err != nil {
		t.Fatal(err)
	}
	count := cl.coord.Manager().Instances("count")[0]
	if err := cl.coord.ScaleIn([]plan.InstanceID{count}); err == nil {
		t.Error("single-victim merge accepted")
	}
	if err := cl.coord.ScaleIn([]plan.InstanceID{count, {Op: "count", Part: 99}}); err == nil {
		t.Error("merge with an unknown sibling accepted")
	}
	src := plan.InstanceID{Op: "src", Part: 1}
	if err := cl.coord.ScaleIn([]plan.InstanceID{src, count}); err == nil {
		t.Error("merge involving a source accepted")
	}
	// The loop still serves requests after the rejections.
	if got := cl.coord.Manager().Parallelism("count"); got != 1 {
		t.Errorf("Parallelism(count) = %d after rejected merges", got)
	}
}

// TestDistributedDeltaCheckpointRecoveryExactCounts is the recovery
// parity test with delta checkpoints shipping over the wire: kill the
// worker hosting the stateful counter mid-stream and assert the exact
// per-key counts a full-checkpoint run produces — folding deltas into
// the coordinator's backup store must lose nothing.
func TestDistributedDeltaCheckpointRecoveryExactCounts(t *testing.T) {
	reg := wordcountRegistry()
	cl := startClusterWith(t, reg, 3, func(c *dist.Config) {
		c.Engine.Incremental = true
	})
	if err := cl.coord.StartJob(); err != nil {
		t.Fatal(err)
	}
	src := plan.InstanceID{Op: "src", Part: 1}
	srcWorker := cl.hostOf(t, src)

	if err := srcWorker.Engine().InjectBatch(src, 300, parityGen); err != nil {
		t.Fatal(err)
	}
	cl.quiesce(t, 300*time.Millisecond, 10*time.Second)

	victim := cl.coord.Manager().Instances("count")[0]
	if err := cl.coord.Fail(victim); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if len(cl.coord.Manager().Records()) == 1 && cl.coord.Pending() == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("recovery did not complete: records=%v errs=%v pending=%d",
				cl.coord.Manager().Records(), cl.coord.Errors(), cl.coord.Pending())
		}
		time.Sleep(10 * time.Millisecond)
	}
	cl.quiesce(t, 300*time.Millisecond, 10*time.Second)

	if err := srcWorker.Engine().InjectBatch(src, 300, parityGen); err != nil {
		t.Fatal(err)
	}
	cl.quiesce(t, 300*time.Millisecond, 10*time.Second)

	insts := cl.coord.Manager().Instances("count")
	if len(insts) != 1 || insts[0] == victim {
		t.Fatalf("Instances(count) after recovery = %v (victim %v)", insts, victim)
	}
	counter := cl.counterOf(t, insts[0])
	for i := 0; i < 10; i++ {
		w := fmt.Sprintf("w%02d", i)
		if got := counter.Count(w); got != 60 {
			t.Errorf("Count(%s) = %d, want 60 (exactly once across failure with delta checkpoints)", w, got)
		}
	}
	if errs := cl.coord.Errors(); len(errs) != 0 {
		t.Errorf("Errors = %v", errs)
	}
}

// shipWord is a payload type without a wire tag: it crosses the wire and
// sits in checkpoints as a tag-0 blob of the configured PayloadCodec.
type shipWord struct{ W string }

func init() { gob.Register(shipWord{}) }

// decodeCounter is the coordinator's PayloadCodec in
// TestCoordinatorStoresShipsWithoutDecoding: a DecodePayload call means
// the coordinator decoded a checkpoint body.
type decodeCounter struct{ n atomic.Int64 }

func (c *decodeCounter) EncodePayload(p any) ([]byte, error) {
	return state.GobPayloadCodec{}.EncodePayload(p)
}

func (c *decodeCounter) DecodePayload(b []byte) (any, error) {
	c.n.Add(1)
	return state.GobPayloadCodec{}.DecodePayload(b)
}

// TestCoordinatorStoresShipsWithoutDecoding: the backup host stores a
// shipped checkpoint as the bytes it arrived as. Under a steady stream
// whose buffered tuples need the fallback codec, any number of ships
// costs the coordinator zero payload decodes; the first recovery, which
// restores from one of those checkpoints, decodes it.
func TestCoordinatorStoresShipsWithoutDecoding(t *testing.T) {
	q := plan.NewQuery()
	q.AddOp(plan.OpSpec{ID: "src", Role: plan.RoleSource})
	q.AddOp(plan.OpSpec{ID: "wrap", Role: plan.RoleStateless})
	q.AddOp(plan.OpSpec{ID: "sum", Role: plan.RoleStateful})
	q.AddOp(plan.OpSpec{ID: "sink", Role: plan.RoleSink})
	q.Connect("src", "wrap").Connect("wrap", "sum").Connect("sum", "sink")
	reg := testRegistry{q: q, f: map[plan.OpID]operator.Factory{
		"wrap": func() operator.Operator {
			return operator.Map(func(t stream.Tuple) (stream.Key, any, bool) {
				return t.Key, shipWord{W: t.Payload.(string)}, true
			})
		},
		// sum is slower than the source, so a backlog stands between wrap
		// and sum: whenever wrap checkpoints, whatever sum's last
		// acknowledgement trimmed, unacknowledged output remains.
		"sum": func() operator.Operator {
			return operator.NewKeyedSum(0, func(v any) (float64, bool) {
				time.Sleep(100 * time.Microsecond)
				_, ok := v.(shipWord)
				return 1, ok
			})
		},
	}}
	codec := &decodeCounter{}
	cl := startClusterWith(t, reg, 3, func(c *dist.Config) { c.Codec = codec })
	if err := cl.coord.StartJob(); err != nil {
		t.Fatal(err)
	}
	src := plan.InstanceID{Op: "src", Part: 1}
	eng := cl.hostOf(t, src).Engine()
	stop, stopped := make(chan struct{}), make(chan struct{})
	go func() { // 10k tuples/s; blocks on a full input when sum falls behind
		defer close(stopped)
		for {
			select {
			case <-stop:
				return
			case <-time.After(2 * time.Millisecond):
				_ = eng.InjectBatch(src, 20, parityGen)
			}
		}
	}()
	defer func() { // drain, so the cluster's teardown meets idle links
		close(stop)
		<-stopped
		cl.quiesce(t, 300*time.Millisecond, 30*time.Second)
	}()

	waitFor := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(10 * time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%s: timed out (errs=%v)", what, cl.coord.Errors())
			}
		}
	}
	backups := cl.coord.Manager().Backups()
	waitFor("ten shipped checkpoints", func() bool { return backups.ShipStats().Fulls >= 10 })
	if n := codec.n.Load(); n != 0 {
		t.Fatalf("coordinator decoded %d payloads while storing %d ships", n, backups.ShipStats().Fulls)
	}

	victim := cl.coord.Manager().Instances("wrap")[0]
	if err := cl.coord.Fail(victim); err != nil {
		t.Fatal(err)
	}
	waitFor("recovery", func() bool { return len(cl.coord.Manager().Records()) == 1 && cl.coord.Pending() == 0 })
	if codec.n.Load() == 0 {
		t.Error("recovery restored wrap without decoding its checkpoint's buffered tuples")
	}
	if errs := cl.coord.Errors(); len(errs) != 0 {
		t.Errorf("Errors = %v", errs)
	}
}
