package dist

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"

	"seep/internal/control"
	"seep/internal/controlplane"
	"seep/internal/core"
	"seep/internal/engine"
	"seep/internal/plan"
	"seep/internal/state"
	"seep/internal/stream"
	"seep/internal/transport"
)

// Config parameterises the coordinator.
type Config struct {
	// Addr is the coordinator's listen address (e.g. "127.0.0.1:0").
	Addr string
	// Codec serialises tuple payloads crossing the wire (default gob).
	Codec state.PayloadCodec
	// Topology is the registry name workers instantiate.
	Topology string

	// Engine is the engine configuration every worker runs, forwarded
	// whole with the assignment; Hosted and Backup are each worker's own
	// wiring and stay nil here. With Incremental set, workers ship
	// incremental checkpoints between full snapshots, which the
	// coordinator folds into its authoritative store.
	Engine engine.Config

	// DetectDelay is the heartbeat failure-detection horizon: a worker
	// missing replies for about this long is declared down (default
	// 500 ms).
	DetectDelay time.Duration
	// RecoveryPi is π for failure recovery (default 1; π=1 inherits
	// duplicate-detection watermarks for exact replay). A fallback
	// recovery of a stranded instance always runs at π = 1.
	RecoveryPi int
	// Policy, when set, enables detector-driven scale out from worker
	// utilisation reports.
	Policy *control.Policy
	// ScaleIn, when set (requires Policy), enables detector-driven
	// merges: when every partition of an operator reports utilisation
	// below the low watermark for the configured consecutive rounds,
	// the adjacent pair with the lowest combined load is merged.
	ScaleIn *control.ScaleInPolicy
	// TransitionTimeout bounds each stage of a recovery/scale-out
	// transition (default 10 s).
	TransitionTimeout time.Duration

	// ControlPlaneDir, when set, makes the control plane durable: every
	// control-plane mutation is journaled to a synced snapshot file in
	// this directory, shipped checkpoints are persisted beside it
	// through core.DurableStore, and RecoverCoordinator can rebuild a
	// dead coordinator from the directory alone.
	ControlPlaneDir string
	// StandbyAddr, advertised to workers on assignment, is where an
	// orphaned worker re-dials after coordinator death (typically the
	// address a cold-standby coordinator will listen on — often the
	// coordinator's own address, reused by its replacement). Empty
	// disables the worker-side redial loop; a reborn coordinator can
	// still reach workers itself via MsgResume.
	StandbyAddr string
	// JournalHook, when set, runs after every journal append; returning
	// true crash-stops the coordinator at exactly that record, modelling
	// coordinator death at a precise point in a transition (tests).
	JournalHook func(controlplane.Kind) bool
}

func (c Config) withDefaults() Config {
	if c.Codec == nil {
		c.Codec = state.GobPayloadCodec{}
	}
	if c.DetectDelay <= 0 {
		c.DetectDelay = 500 * time.Millisecond
	}
	if c.RecoveryPi < 1 {
		c.RecoveryPi = 1
	}
	if c.TransitionTimeout <= 0 {
		c.TransitionTimeout = 10 * time.Second
	}
	return c
}

// event is one unit of work for the coordinator loop. Exactly one of fn
// or ctl is set (down events carry only addr).
type event struct {
	kind evKind
	addr string
	ctl  *Control
	fn   func()
}

type evKind int

const (
	evCall evKind = iota
	evDown
	evCtl
)

// transition is one in-flight control operation, advanced by the loop
// as acknowledgements and checkpoint ships arrive; a stage times out
// rather than wedge the queue. A recovery, scale out or scale in is
// ordered by its core.Sequencer: a stage's acknowledgements and ships
// become the events it awaits. Deploy, start and reattach run next once
// their stage is in.
type transition struct {
	seq      uint64
	stage    int
	waiting  int
	ackErrs  []string
	replayed int
	// awaitShips holds the instances whose final checkpoints must land
	// in the store before the stage is in.
	awaitShips map[plan.InstanceID]bool
	done       chan error

	sq *core.Sequencer
	// report is the event the stage answers sq with once it is in.
	report *core.Event
	// encoded holds each replacement's checkpoint from Place to Adopt:
	// the bytes of its durable file are the bytes of its MsgDeploy.
	encoded map[plan.InstanceID][]byte

	next func()
	// timer times the current stage out (armTimeout); it is stopped when
	// the stage advances, the transition finishes or the coordinator
	// closes, so no closed coordinator stays reachable through it.
	timer *time.Timer
	// reattach marks the reborn coordinator's reconciliation handshake:
	// waiting counts MsgReattach inventories rather than MsgAck replies.
	reattach bool
}

// ready reports whether the current stage's acknowledgements and
// checkpoint ships have all arrived.
func (t *transition) ready() bool { return t.waiting <= 0 && len(t.awaitShips) == 0 }

// expect awaits the acknowledgement of a sent control message; one
// that reached no worker fails the stage.
func (t *transition) expect(sent int) {
	if sent == 0 {
		t.ackErrs = append(t.ackErrs, "no worker reached")
	}
	t.waiting += sent
}

// Coordinator owns the query plan, the authoritative backup store, the
// failure detector and the scaling policy for one distributed job. All
// decisions flow through a single event loop: heartbeat down events,
// worker acknowledgements, checkpoint ships and utilisation reports are
// one stream, so recovery and scale out serialise without per-peer
// goroutines.
type Coordinator struct {
	cfg    Config
	codec  state.PayloadCodec
	ln     *transport.Listener
	tm     *transport.Metrics
	scaler *control.Scaler

	events chan event
	quit   chan struct{}
	loopWG sync.WaitGroup

	// Loop-owned state (no locks: only the loop goroutine touches it).
	// Fields marked seep:journaled are authoritative control-plane
	// state captured by snapshotState and reconstructed from the
	// journal on failover; the journalfirst analyzer checks that methods
	// mutating them append a journal record before any worker-visible
	// send.
	q          *plan.Query   // seep:journaled
	mgr        *core.Manager // seep:journaled
	workers    map[string]*workerRef
	order      []string                   // seep:journaled
	placement  map[plan.InstanceID]string // seep:journaled
	trans      *transition
	queue      []func()
	seq        uint64 // seep:journaled
	expectDown map[string]bool
	startAt    time.Time // seep:journaled
	// dead marks a JournalHook-induced crash: the loop stops executing
	// control logic mid-statement, exactly like kill -9.
	dead bool
	// invByWorker collects MsgReattach inventories during the reborn
	// coordinator's reconciliation handshake.
	invByWorker map[string]*Control

	// Durable control plane (nil when Config.ControlPlaneDir is unset).
	// The Journal is internally locked; jn/dstore themselves are set
	// once at construction/deploy.
	jn     *controlplane.Journal
	dstore *core.DurableStore

	// Published snapshots for cross-goroutine readers.
	mu           sync.Mutex
	errs         []string
	pending      int
	pubPlacement map[plan.InstanceID]string
	workerStats  map[string]WorkerStats
	// Control-plane replay/failover numbers (zero unless this
	// coordinator was built by RecoverCoordinator).
	replayRecords  int
	replayMillis   int64
	reattached     int
	failoverMillis int64
}

type workerRef struct {
	peer  *transport.Peer
	alive bool
}

// NewCoordinator opens the coordinator's listener and starts its event
// loop. Deploy attaches the query and workers.
func NewCoordinator(cfg Config) (*Coordinator, error) {
	return newCoordinator(cfg.withDefaults())
}

// newCoordinator builds the shell every coordinator shares — journal,
// listener, event loop — for both the fresh-deploy and the
// journal-recovery entry points.
func newCoordinator(cfg Config) (*Coordinator, error) {
	c := &Coordinator{
		cfg:          cfg,
		codec:        cfg.Codec,
		tm:           &transport.Metrics{},
		events:       make(chan event, 1024),
		quit:         make(chan struct{}),
		workers:      make(map[string]*workerRef),
		placement:    make(map[plan.InstanceID]string),
		expectDown:   make(map[string]bool),
		pubPlacement: make(map[plan.InstanceID]string),
		workerStats:  make(map[string]WorkerStats),
	}
	if cfg.Policy != nil {
		c.scaler = control.NewScaler(*cfg.Policy, cfg.ScaleIn)
	}
	if cfg.ControlPlaneDir != "" {
		jn, err := controlplane.Open(cfg.ControlPlaneDir)
		if err != nil {
			return nil, err
		}
		c.jn = jn
	}
	ln, err := transport.ListenWith(cfg.Addr, cfg.Codec, transport.Handlers{
		OnControl: func(body []byte) {
			ctl, err := decodeControl(body)
			if err != nil {
				return
			}
			c.post(event{kind: evCtl, addr: ctl.From, ctl: ctl})
		},
	}, c.tm)
	if err != nil {
		if c.jn != nil {
			_ = c.jn.Close()
		}
		return nil, err
	}
	c.ln = ln
	c.loopWG.Add(1)
	go c.loop()
	return c, nil
}

// Addr returns the coordinator's listen address.
func (c *Coordinator) Addr() string { return c.ln.Addr() }

func (c *Coordinator) post(ev event) {
	select {
	case c.events <- ev:
	case <-c.quit:
	}
}

// call runs fn on the loop goroutine and waits for it to signal done.
// The deadline is a stopped timer, not time.After: these waits sit on
// every coordinator entry point, and a bare time.After would leak one
// timer per call until its deadline fired.
func (c *Coordinator) call(timeout time.Duration, fn func(done chan error)) error {
	done := make(chan error, 1)
	c.post(event{kind: evCall, fn: func() { fn(done) }})
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case err := <-done:
		return err
	case <-timer.C:
		return fmt.Errorf("dist: coordinator call timed out after %v", timeout)
	case <-c.quit:
		return fmt.Errorf("dist: coordinator closed")
	}
}

func (c *Coordinator) loop() {
	defer c.loopWG.Done()
	for {
		select {
		case <-c.quit:
			return
		case ev := <-c.events:
			switch ev.kind {
			case evCall:
				ev.fn()
			case evDown:
				c.onWorkerDown(ev.addr)
			case evCtl:
				c.onControl(ev.ctl)
			}
			c.publish()
		}
	}
}

// publish refreshes the externally readable snapshots after every loop
// event.
func (c *Coordinator) publish() {
	busy := len(c.queue) + len(c.expectDown)
	if c.trans != nil {
		busy++
	}
	c.mu.Lock()
	c.pending = busy
	c.pubPlacement = make(map[plan.InstanceID]string, len(c.placement))
	for k, v := range c.placement {
		c.pubPlacement[k] = v
	}
	c.mu.Unlock()
}

func (c *Coordinator) pushErr(format string, args ...any) {
	c.mu.Lock()
	c.errs = append(c.errs, fmt.Sprintf(format, args...))
	c.mu.Unlock()
}

func (c *Coordinator) nowMillis() int64 {
	if c.startAt.IsZero() {
		return 0
	}
	return time.Since(c.startAt).Milliseconds()
}

// journal appends one record to the journal (a no-op without a
// control-plane dir) and reports whether the coordinator survived the
// append: the JournalHook crash point models coordinator death at
// exactly that record, and every caller must stop dead on false —
// nothing after a crash point may execute, like a kill -9 between two
// statements.
func (c *Coordinator) journal(rec *controlplane.Record) bool {
	if c.dead {
		return false
	}
	if c.jn == nil {
		return true
	}
	if err := c.jn.Append(rec); err != nil {
		// A journal write failure must not take the data path down; the
		// job keeps running with a stale journal and the gap surfaces.
		c.pushErr("dist: journal %s: %v", rec.Kind, err)
		return true
	}
	if c.cfg.JournalHook != nil && c.cfg.JournalHook(rec.Kind) {
		c.crash()
		return false
	}
	return true
}

// crash models kill -9 from inside the event loop: stop everything
// without another line of control logic. Runs on the loop goroutine, so
// it must not wait for the loop itself; loop() exits on the closed quit
// after the current event unwinds.
func (c *Coordinator) crash() {
	c.dead = true
	select {
	case <-c.quit:
	default:
		close(c.quit)
	}
	c.ln.Close()
	for _, ref := range c.workers {
		if ref.peer != nil {
			ref.peer.Close()
		}
	}
	if c.jn != nil {
		_ = c.jn.Close()
	}
}

// snapshotState assembles a self-contained control-plane snapshot from
// the loop-owned state (callable only on the loop goroutine).
func (c *Coordinator) snapshotState() *controlplane.State {
	st := &controlplane.State{
		Topology:   c.cfg.Topology,
		Workers:    append([]string(nil), c.order...),
		Placements: c.placements(),
		Books:      c.mgr.Books(),
		NextSeq:    c.seq,
		Started:    !c.startAt.IsZero(),
	}
	if st.Started {
		st.StartUnixMillis = c.startAt.UnixMilli()
	}
	return st
}

// placements lists the placement map sorted by instance, so identical
// maps encode identically.
func (c *Coordinator) placements() []controlplane.Placement {
	out := make([]controlplane.Placement, 0, len(c.placement))
	for inst, addr := range c.placement {
		out = append(out, controlplane.Placement{Inst: inst, Addr: addr})
	}
	slices.SortFunc(out, func(a, b controlplane.Placement) int { return a.Inst.Compare(b.Inst) })
	return out
}

// standbyAddr is where orphaned workers re-dial after coordinator death.
// With a durable control plane and no explicit standby, workers redial
// the coordinator's own address — the restart-in-place pattern, where a
// reborn coordinator listens where the old one did.
func (c *Coordinator) standbyAddr() string {
	if c.cfg.StandbyAddr != "" {
		return c.cfg.StandbyAddr
	}
	if c.cfg.ControlPlaneDir != "" {
		return c.ln.Addr()
	}
	return ""
}

// ---- public operations (cross-goroutine) ----

// Deploy dials the workers, computes the placement and installs the
// topology on every worker. Blocking; must precede StartJob.
func (c *Coordinator) Deploy(q *plan.Query, workerAddrs []string) error {
	if len(workerAddrs) == 0 {
		return fmt.Errorf("dist: no workers")
	}
	return c.call(30*time.Second, func(done chan error) { c.startDeploy(q, workerAddrs, done) })
}

// StartJob starts every worker's engine (and the registry-bound
// sources), returning once every worker has acknowledged — callers may
// inject immediately after.
func (c *Coordinator) StartJob() error {
	return c.await(2*c.cfg.TransitionTimeout, c.beginStart)
}

// await queues op behind any in-flight transition and waits for it to
// answer done.
func (c *Coordinator) await(timeout time.Duration, op func(done chan error)) error {
	return c.call(timeout, func(done chan error) { c.enqueueOp(func() { op(done) }) })
}

func (c *Coordinator) beginStart(done chan error) {
	t := &transition{seq: c.nextSeq(), done: done}
	c.trans = t
	c.startAt = time.Now()
	if !c.journal(&controlplane.Record{Kind: controlplane.RecStart, Seq: t.seq, StartUnixMillis: c.startAt.UnixMilli()}) {
		return
	}
	// Per-worker sends, each carrying the coordinator's job clock at
	// send time: the worker offsets its engine clock by it, so Born
	// stamps and latency observations across workers share the
	// coordinator's frame (error ≈ one-way control latency per worker).
	for _, addr := range c.order {
		t.waiting += c.sendTo(addr, &Control{Kind: MsgStart, Seq: t.seq, CoordNow: c.nowMillis()})
	}
	if t.waiting == 0 {
		c.finish(t, fmt.Errorf("dist: start reached no workers"))
		return
	}
	t.next = func() {
		if len(t.ackErrs) > 0 {
			c.finish(t, fmt.Errorf("dist: start failed: %s", strings.Join(t.ackErrs, "; ")))
			return
		}
		c.finish(t, nil)
	}
	c.armTimeout(t)
}

// StopJob gracefully stops every worker's engine; workers stay up (a
// daemon can be re-assigned).
func (c *Coordinator) StopJob() {
	_ = c.call(10*time.Second, func(done chan error) {
		c.broadcast(&Control{Kind: MsgStop})
		done <- nil
	})
}

// Fail crash-stops the worker hosting inst — the distributed Job.Fail
// models VM failure, so the whole hosting worker dies and heartbeat
// detection drives recovery of everything it hosted.
func (c *Coordinator) Fail(inst plan.InstanceID) error {
	return c.call(10*time.Second, func(done chan error) {
		spec := c.q.Op(inst.Op)
		if spec == nil || !c.mgr.Live(inst) {
			done <- fmt.Errorf("dist: %s is not a live instance", inst)
			return
		}
		if spec.Role == plan.RoleSource || spec.Role == plan.RoleSink {
			done <- fmt.Errorf("dist: sources and sinks are assumed reliable (§2.2)")
			return
		}
		addr := c.placement[inst]
		ref := c.workers[addr]
		if ref == nil || !ref.alive {
			done <- fmt.Errorf("dist: no live worker hosts %s", inst)
			return
		}
		body, err := encodeControl(&Control{Kind: MsgDie})
		if err != nil {
			done <- err
			return
		}
		// The worker tears itself down on MsgDie; a failed send means
		// it is already dead. Either way the heartbeat detector declares
		// it down and recovery follows.
		_ = ref.peer.SendControl(body)
		c.expectDown[addr] = true
		done <- nil
	})
}

// ScaleOut splits a live instance into pi partitions — the distributed
// Algorithm 3. Blocks until the transition completes.
func (c *Coordinator) ScaleOut(victim plan.InstanceID, pi int) error {
	return c.await(4*c.cfg.TransitionTimeout, func(done chan error) {
		c.begin(core.ScaleOut, []plan.InstanceID{victim}, pi, c.nowMillis(), done)
	})
}

// ScaleIn merges sibling partitions with adjacent key ranges into one
// instance. Blocks until the transition completes. A worker death
// mid-merge aborts the transition and falls back to the normal recovery
// path.
func (c *Coordinator) ScaleIn(victims []plan.InstanceID) error {
	vs := append([]plan.InstanceID(nil), victims...)
	return c.await(4*c.cfg.TransitionTimeout, func(done chan error) {
		c.begin(core.ScaleIn, vs, 1, c.nowMillis(), done)
	})
}

// Pending reports queued or in-flight transitions plus worker deaths
// not yet detected — the distributed Run()'s settle gate.
func (c *Coordinator) Pending() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.pending
}

// Errors returns asynchronous failures (recoveries that could not
// complete, lost assumed-reliable instances).
func (c *Coordinator) Errors() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, len(c.errs))
	copy(out, c.errs)
	return out
}

// PlacementOf returns the worker address hosting inst ("" if unknown).
func (c *Coordinator) PlacementOf(inst plan.InstanceID) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.pubPlacement[inst]
}

// WorkerStatsSnapshot returns the latest piggybacked per-worker
// counters (external workers only report when a policy/report loop is
// active).
func (c *Coordinator) WorkerStatsSnapshot() map[string]WorkerStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]WorkerStats, len(c.workerStats))
	for k, v := range c.workerStats {
		out[k] = v
	}
	return out
}

// TransportStats snapshots the coordinator's own transport counters.
func (c *Coordinator) TransportStats() transport.Stats { return c.tm.Snapshot() }

// ControlPlaneStats snapshots journal traffic, fsync latency and — for
// a coordinator built by RecoverCoordinator — replay and failover
// timings. Zero-valued when no control-plane dir is configured.
func (c *Coordinator) ControlPlaneStats() controlplane.Stats {
	var st controlplane.Stats
	if c.jn != nil {
		st = c.jn.Stats()
	}
	c.mu.Lock()
	st.ReplayRecords = c.replayRecords
	st.ReplayMillis = c.replayMillis
	st.Reattached = c.reattached
	st.FailoverMillis = c.failoverMillis
	c.mu.Unlock()
	return st
}

// Manager exposes the authoritative query manager (instances,
// parallelism, transition records, backup-store ship stats).
func (c *Coordinator) Manager() *core.Manager { return c.mgr }

// Close stops the event loop and tears down all connections. Workers
// are not stopped (StopJob does that); in-process deployments kill them
// directly.
func (c *Coordinator) Close() {
	select {
	case <-c.quit:
		return
	default:
	}
	close(c.quit)
	c.loopWG.Wait()
	// The loop is gone, so its transition is this goroutine's to read.
	if c.trans != nil {
		c.trans.stopTimer()
	}
	c.ln.Close()
	for _, ref := range c.workers {
		if ref.peer != nil {
			ref.peer.Close()
		}
	}
	if c.jn != nil {
		_ = c.jn.Close()
	}
}

// ---- loop-side operations ----

func (c *Coordinator) startDeploy(q *plan.Query, addrs []string, done chan error) {
	if c.mgr != nil {
		done <- fmt.Errorf("dist: already deployed")
		return
	}
	mgr, err := core.NewManager(q)
	if err != nil {
		done <- err
		return
	}
	c.q, c.mgr = q, mgr
	if c.cfg.ControlPlaneDir != "" {
		ds, err := core.NewDurableStoreOver(mgr.Backups(), c.cfg.ControlPlaneDir, c.codec)
		if err != nil {
			done <- err
			return
		}
		c.dstore = ds
	}
	for _, addr := range addrs {
		peer, err := c.dialWorker(addr)
		if err != nil {
			done <- fmt.Errorf("dist: worker %s: %w", addr, err)
			return
		}
		c.workers[addr] = &workerRef{peer: peer, alive: true}
		c.order = append(c.order, addr)
	}
	// Deterministic placement: operators in declaration order round-robin
	// across workers, partitions fanning out from the operator's slot —
	// adjacent operators land on different workers, so every edge
	// exercises the network and no worker hosts a whole pipeline.
	for opIdx, op := range q.Ops() {
		for i, inst := range mgr.Instances(op) {
			c.placement[inst] = addrs[(opIdx+i)%len(addrs)]
		}
	}
	t := &transition{seq: c.nextSeq(), done: done}
	c.trans = t
	// The deployment snapshot is journaled before any worker sees the
	// plan: a coordinator that dies past this point replays a placement
	// that is a superset of what workers know, never the reverse.
	if !c.journal(&controlplane.Record{Kind: controlplane.RecDeploy, Seq: t.seq, State: c.snapshotState()}) {
		return
	}
	ctl := &Control{
		Kind:         MsgAssign,
		Seq:          t.seq,
		Topology:     c.cfg.Topology,
		CoordAddr:    c.ln.Addr(),
		Placements:   c.placements(),
		Engine:       c.cfg.Engine,
		StandbyAddr:  c.standbyAddr(),
		DetectMillis: c.cfg.DetectDelay.Milliseconds(),
	}
	if c.cfg.Policy != nil {
		ctl.ReportEveryMillis = c.cfg.Policy.ReportEveryMillis
	}
	t.waiting = c.broadcast(ctl)
	t.next = func() {
		if len(t.ackErrs) > 0 {
			c.finish(t, fmt.Errorf("dist: assign failed: %s", strings.Join(t.ackErrs, "; ")))
			return
		}
		c.finish(t, nil)
	}
	c.armTimeout(t)
}

func (c *Coordinator) nextSeq() uint64 {
	c.seq++
	return c.seq
}

// broadcast sends a control message to every live worker and returns how
// many sends succeeded (the acknowledgement count to wait for).
func (c *Coordinator) broadcast(ctl *Control) int {
	body, err := encodeControl(ctl)
	if err != nil {
		return 0
	}
	n := 0
	for _, addr := range c.order {
		ref := c.workers[addr]
		if ref == nil || !ref.alive {
			continue
		}
		if ref.peer.SendControl(body) == nil {
			n++
		}
	}
	return n
}

// sendTo sends a control message to one worker and, like broadcast,
// returns how many sends succeeded: 1 or 0.
func (c *Coordinator) sendTo(addr string, ctl *Control) int {
	ref := c.workers[addr]
	if ref == nil || !ref.alive {
		return 0
	}
	body, err := encodeControl(ctl)
	if err != nil || ref.peer.SendControl(body) != nil {
		return 0
	}
	return 1
}

func (c *Coordinator) enqueueOp(fn func()) {
	if c.trans == nil {
		fn()
		return
	}
	c.queue = append(c.queue, fn)
}

// advance moves a transition past a finished stage. A sequenced one
// reports the stage to its sequencer — an acknowledgement error fails
// the step for every instance — and runs what that releases.
func (c *Coordinator) advance(t *transition) {
	t.stage++
	if t.report != nil {
		ev := *t.report
		if len(t.ackErrs) > 0 {
			ev.Err, ev.Insts = cmp.Or(ev.Err, fmt.Errorf("dist: %s", strings.Join(t.ackErrs, "; "))), nil
		}
		ev.Replayed, ev.At = t.replayed, c.nowMillis()
		t.report, t.ackErrs, t.replayed = nil, nil, 0
		c.run(t, t.sq.Step(ev))
		return
	}
	next := t.next
	t.next = nil
	if next != nil {
		c.armTimeout(t)
		next()
	}
}

// armTimeout times the transition's current stage out, replacing the
// previous stage's timer.
func (c *Coordinator) armTimeout(t *transition) {
	stage := t.stage
	t.stopTimer()
	t.timer = time.AfterFunc(c.cfg.TransitionTimeout, func() {
		c.post(event{kind: evCall, fn: func() {
			switch {
			case c.trans != t || t.stage != stage:
			case t.sq != nil:
				c.run(t, t.sq.Step(core.Event{Kind: core.Timeout}))
			default:
				c.finish(t, fmt.Errorf("dist: transition timed out at stage %d", stage))
			}
		}})
	})
}

// stopTimer stops the current stage's timer, if any.
func (t *transition) stopTimer() {
	if t.timer != nil {
		t.timer.Stop()
		t.timer = nil
	}
}

func (c *Coordinator) finish(t *transition, err error) {
	if c.trans != t {
		return
	}
	t.stopTimer()
	c.trans = nil
	// The closing record lands before a rollback runs (a Recover queues
	// it first in line): a coordinator that dies right after the abort
	// record replays with the transition closed, and its rollback happens
	// through reconciliation instead — the journal never claims a
	// rollback that did not run.
	if err != nil {
		if !c.journal(&controlplane.Record{Kind: controlplane.RecAbort, Seq: t.seq, Reason: err.Error()}) {
			return
		}
		c.pushErr("%v", err)
	} else if !c.journal(&controlplane.Record{Kind: controlplane.RecCommit, Seq: t.seq}) {
		return
	}
	if t.done != nil {
		t.done <- err
	}
	if c.trans == nil && len(c.queue) > 0 {
		next := c.queue[0]
		c.queue = c.queue[1:]
		next()
	}
}

func (c *Coordinator) onControl(ctl *Control) {
	switch ctl.Kind {
	case MsgAck:
		t := c.trans
		if t == nil || ctl.Seq != t.seq {
			return
		}
		if ctl.Err != "" {
			t.ackErrs = append(t.ackErrs, fmt.Sprintf("%s: %s", ctl.From, ctl.Err))
		}
		t.replayed += ctl.Replayed
		t.waiting--
		if t.ready() {
			c.advance(t)
		}
	case MsgShip:
		inst, ok := c.storeShip(ctl)
		if !ok {
			return
		}
		if t := c.trans; t != nil && t.awaitShips[inst] {
			delete(t.awaitShips, inst)
			if t.ready() {
				c.advance(t)
			}
		}
	case MsgReport:
		c.mu.Lock()
		c.workerStats[ctl.From] = ctl.Stats
		c.mu.Unlock()
		c.onReports(ctl.Reports)
	case MsgReattach:
		c.onReattach(ctl)
	}
}

// storeShip stores a shipped checkpoint in the authoritative store and
// sends its acknowledgement trims to the hosts of the acknowledged
// upstream instances. A full checkpoint is stored by its header alone:
// the state behind it stays bytes until a transition restores from it,
// so the event loop never spends a checkpoint's decode between two
// control messages. A delta is decoded, checked (state.Checkpoint.
// Validate) and handed to the same Store as every checkpoint, which
// folds it into the stored base — and, with a durable control plane,
// persists the fold before installing it, so a recovered coordinator
// restores through the delta, not just up to its base. A delta whose
// base is not the stored checkpoint (one that raced a recovery) is
// dropped silently: the worker's next full checkpoint re-anchors the
// chain, and until then the stored base stays authoritative, so a lost
// delta costs replay distance, never correctness. It reports the owner
// and whether a full checkpoint was stored: a transition's awaitShips
// waits for fulls only.
func (c *Coordinator) storeShip(ctl *Control) (plan.InstanceID, bool) {
	if c.mgr == nil {
		return plan.InstanceID{}, false
	}
	h, err := state.DecodeCheckpointHeader(ctl.Checkpoint)
	if err != nil {
		c.pushErr("dist: bad checkpoint from %s: %v", ctl.From, err)
		return plan.InstanceID{}, false
	}
	var delta *state.Checkpoint
	if ctl.Base != 0 || len(ctl.Deleted) > 0 {
		delta, err = state.DecodeCheckpoint(stream.NewDecoder(ctl.Checkpoint), c.codec)
		if err == nil {
			delta.Base, delta.Deleted = ctl.Base, ctl.Deleted
			err = delta.Validate()
		}
		if err != nil {
			c.pushErr("dist: bad delta checkpoint from %s: %v", ctl.From, err)
			return plan.InstanceID{}, false
		}
	}
	if !c.mgr.Live(h.Instance) {
		// A ship racing the instance's replacement: the store must not
		// resurrect a retired owner.
		return plan.InstanceID{}, false
	}
	host, err := c.mgr.BackupTarget(h.Instance)
	if err != nil {
		return plan.InstanceID{}, false
	}
	switch {
	case delta != nil && c.dstore != nil:
		err = c.dstore.Store(host, delta)
	case delta != nil:
		err = c.mgr.Backups().Store(host, delta)
	case c.dstore != nil:
		err = c.dstore.StoreEncoded(host, h, ctl.Checkpoint)
	default:
		err = c.mgr.Backups().StoreEncoded(host, h, ctl.Checkpoint, c.codec)
	}
	if err != nil {
		if c.dstore != nil && !errors.Is(err, core.ErrNoBase) {
			c.pushErr("dist: store shipped checkpoint for %s: %v", h.Instance, err)
		}
		return plan.InstanceID{}, false
	}
	c.sendTrims(h.Instance, h.Acks)
	return h.Instance, delta == nil
}

// sendTrims sends owner's acknowledgement trims to the hosts of the
// acknowledged upstream instances: one MsgTrim per worker.
func (c *Coordinator) sendTrims(owner plan.InstanceID, acks map[plan.InstanceID]int64) {
	byAddr := make(map[string][]core.Trim)
	for up, ts := range acks {
		addr := c.placement[up]
		if addr == "" {
			// A superseded instance: its retained output lives on with its
			// first replacement — route the trim to whichever worker hosts
			// that now.
			holder, _ := c.mgr.LegacyOwner(up)
			addr = c.placement[holder]
		}
		byAddr[addr] = append(byAddr[addr], core.Trim{Up: up, Owner: owner, TS: ts})
	}
	for addr, trims := range byAddr {
		c.sendTo(addr, &Control{Kind: MsgTrim, TrimAcks: trims})
	}
}

// onReports runs one scaling round over a worker's utilisation reports
// — on the same event loop that consumes heartbeat failures, so scaling
// and recovery decisions are serialised by construction — and queues the
// transitions it decides.
func (c *Coordinator) onReports(reports []control.Report) {
	if c.scaler == nil || len(reports) == 0 {
		return
	}
	splits, merges := c.scaler.Round(reports, control.View{
		Room:    c.mgr.Room,
		Routing: c.mgr.Routing,
		Live:    func(inst plan.InstanceID) bool { return c.mgr.Live(inst) && c.placement[inst] != "" },
	})
	for _, victim := range splits {
		c.enqueueOp(func() { c.begin(core.ScaleOut, []plan.InstanceID{victim}, 2, c.nowMillis(), nil) })
	}
	for _, pair := range merges {
		c.enqueueOp(func() { c.begin(core.ScaleIn, pair, 1, c.nowMillis(), nil) })
	}
}

func (c *Coordinator) onWorkerDown(addr string) {
	ref := c.workers[addr]
	if ref == nil || !ref.alive {
		return
	}
	ref.alive = false
	if ref.peer != nil {
		ref.peer.Close()
	}
	delete(c.expectDown, addr)
	// A merge in flight cannot outlive a worker death: abort it, and its
	// abort-to-recovery recovers whatever it left behind on live workers
	// — retired-but-unmerged victims from their final checkpoints, a
	// planned merge product from the stored merged checkpoint (which
	// carries the victims' legacy buffers). The worker is already marked
	// dead, so the gather below owns everything it hosted.
	if t := c.trans; t != nil && t.sq != nil && t.sq.Kind() == core.ScaleIn {
		c.run(t, t.sq.Step(core.Event{Kind: core.Failed, Err: fmt.Errorf("dist: worker %s died", addr)}))
	}
	c.gatherLost(addr)
}

// gatherLost enqueues recovery for every instance placed on a worker
// that is gone, in deterministic order — shared by heartbeat death and
// failover reconciliation of workers that could not be re-dialed.
func (c *Coordinator) gatherLost(addr string) {
	var victims []plan.InstanceID
	for inst, a := range c.placement {
		if a != addr {
			continue
		}
		spec := c.q.Op(inst.Op)
		if spec == nil {
			continue
		}
		if spec.Role == plan.RoleSource || spec.Role == plan.RoleSink {
			// Sources and sinks are assumed reliable (§2.2); losing one
			// is unrecoverable and must not pass silently.
			c.pushErr("dist: worker %s died hosting assumed-reliable %s", addr, inst)
			delete(c.placement, inst)
			continue
		}
		victims = append(victims, inst)
	}
	c.recoverAll(victims)
}

// recoverAll queues the recovery of lost instances, in instance order.
func (c *Coordinator) recoverAll(victims []plan.InstanceID) {
	slices.SortFunc(victims, plan.InstanceID.Compare)
	startedAt := c.nowMillis()
	for _, v := range victims {
		c.enqueueOp(func() { c.begin(core.Recovery, []plan.InstanceID{v}, c.cfg.RecoveryPi, startedAt, nil) })
	}
}

// begin starts a sequenced transition. Its intent record lands before
// the first action: a crash anywhere past it replays as an in-doubt
// transition and rolls back through recovery.
func (c *Coordinator) begin(kind core.Kind, victims []plan.InstanceID, pi int, startedAt int64, done chan error) {
	t := &transition{seq: c.nextSeq(), done: done, awaitShips: make(map[plan.InstanceID]bool)}
	c.trans = t
	sq, err := core.NewSequencer(c.mgr, c.scaler, kind, victims, pi, startedAt)
	if err != nil {
		c.finish(t, fmt.Errorf("dist: %w", err))
		return
	}
	t.sq = sq
	if !c.journal(&controlplane.Record{Kind: controlplane.RecIntent, Seq: t.seq, Action: kind.String(), Victims: victims, Pi: pi}) {
		return
	}
	c.run(t, sq.Start())
}

// run executes a sequenced transition's actions on the loop; each
// stage reports once its acknowledgements and ships are in (advance).
func (c *Coordinator) run(t *transition, actions []core.Action) {
	for _, a := range actions {
		switch a.Kind {
		case core.Retire:
			// Each worker stops its victim FIRST, then captures and ships its
			// final checkpoint (rule 1 in core.Sequencer).
			t.report = &core.Event{Kind: core.Retired}
			for _, v := range a.Insts {
				sent := c.sendTo(c.placement[v], &Control{Kind: MsgRetire, Seq: t.seq, Victims: []plan.InstanceID{v}, Final: true})
				if t.expect(sent); sent > 0 {
					t.awaitShips[v] = true
				}
			}
		case core.Place:
			if !c.place(t, a.Plan) {
				return
			}
		case core.Reroute:
			// Every worker applies the trims and inheritance with the
			// reroute; deploying only after every reroute acknowledgement
			// lets the replacements' re-emissions meet renamed
			// acknowledgement maps everywhere.
			tp := a.Plan
			newPl := make([]controlplane.Placement, len(tp.NewInstances))
			for i, ni := range tp.NewInstances {
				newPl[i] = controlplane.Placement{Inst: ni, Addr: c.placement[ni]}
			}
			t.report = &core.Event{Kind: core.Rerouted}
			t.expect(c.broadcast(&Control{Kind: MsgReroute, Seq: t.seq, Op: tp.Victims[0].Op, Routing: state.MarshalRouting(tp.Routing),
				New: newPl, Victims: tp.Victims, Inherit: tp.Inherit, TrimAcks: tp.Trims}))
		case core.Adopt:
			routing := state.MarshalRouting(a.Plan.Routing)
			t.report = &core.Event{Kind: core.Adopted, Insts: a.Insts}
			for _, ni := range a.Insts {
				t.expect(c.sendTo(c.placement[ni], &Control{Kind: MsgDeploy, Seq: t.seq, Routing: routing, Checkpoint: t.encoded[ni]}))
			}
		case core.Checkpoint:
			// Fire and forget: the periodic checkpoint loop covers a miss.
			c.sendTo(c.placement[a.Insts[0]], &Control{Kind: MsgBarrier, Victims: a.Insts})
		case core.Recover:
			c.recoverStranded(a.Insts)
		case core.Done:
			c.finish(t, a.Err)
			return
		}
	}
	switch {
	case !t.ready():
		c.armTimeout(t)
	case t.report != nil:
		c.advance(t)
	}
}

// place is the Place action: a worker for each replacement, each
// checkpoint encoded once — the bytes of its durable file are the bytes
// of its MsgDeploy — and the plan journaled before any worker sees it.
// Replacement files are on disk before the planned record (replay
// recovers them from those files); a replacement whose file cannot be
// persisted fails the Place before the record, so the transition aborts
// to recovery and the journal never names state that is not on disk.
// Victim files are deleted only after the record, so a crash in between
// leaves stale files that replay's liveness sweep removes. False when
// the coordinator died at the record.
func (c *Coordinator) place(t *transition, tp *core.Transition) bool {
	for _, ni := range tp.NewInstances {
		addr := c.pickWorker()
		if addr == "" {
			t.report = &core.Event{Kind: core.Failed, Err: fmt.Errorf("dist: no live workers to host %s", ni)}
			return true
		}
		c.placement[ni] = addr
	}
	for _, v := range tp.Victims {
		delete(c.placement, v)
	}
	t.encoded = make(map[plan.InstanceID][]byte, len(tp.Checkpoints))
	t.report = &core.Event{Kind: core.Placed}
	for _, cp := range tp.Checkpoints {
		blob, err := state.MarshalCheckpoint(cp, c.codec)
		if err != nil {
			t.report.Err = cmp.Or(t.report.Err, fmt.Errorf("dist: encode checkpoint for %s: %w", cp.Instance, err))
			continue
		}
		if c.dstore != nil {
			if err := c.dstore.Persist(cp.Instance, blob); err != nil {
				t.report = &core.Event{Kind: core.Failed, Err: fmt.Errorf("dist: persist checkpoint for %s: %w", cp.Instance, err)}
				return true
			}
		}
		t.encoded[cp.Instance] = blob
		t.report.Insts = append(t.report.Insts, cp.Instance)
	}
	if !c.journal(&controlplane.Record{Kind: controlplane.RecPlanned, Seq: t.seq, State: c.snapshotState(), Trims: tp.Trims}) {
		return false
	}
	if c.dstore != nil {
		for _, v := range tp.Victims {
			c.dstore.Delete(v)
		}
	}
	return true
}

// recoverStranded is the Recover action: each stranded instance on a
// live worker is stopped — best effort: its retire or deploy may never
// have landed — and recovered from the store, first in line once the
// abort record lands. The worker's FIFO control queue sequences the stop
// before the recovery's reroute. Instances on dead (or no) workers are
// left to onWorkerDown's gather.
func (c *Coordinator) recoverStranded(stranded []plan.InstanceID) {
	startedAt := c.nowMillis()
	var ops []func()
	for _, inst := range stranded {
		if addr := c.placement[inst]; c.workers[addr] != nil && c.workers[addr].alive {
			ops = append(ops, func() {
				c.sendTo(addr, &Control{Kind: MsgRetire, Victims: []plan.InstanceID{inst}})
				c.begin(core.Fallback, []plan.InstanceID{inst}, 1, startedAt, nil)
			})
		}
	}
	c.queue = append(ops, c.queue...)
}

// pickWorker returns the live worker hosting the fewest instances.
func (c *Coordinator) pickWorker() string {
	load := make(map[string]int)
	for _, addr := range c.placement {
		load[addr]++
	}
	best := ""
	bestLoad := 0
	for _, addr := range c.order {
		ref := c.workers[addr]
		if ref == nil || !ref.alive {
			continue
		}
		if best == "" || load[addr] < bestLoad {
			best, bestLoad = addr, load[addr]
		}
	}
	return best
}
