// Package engine is the live runtime: operator instances run as
// goroutines connected by channels, with the same state-management
// protocol as the simulated cluster — periodic checkpoints backed up to
// upstream hosts (Algorithm 1), per-upstream-instance duplicate
// detection, output-buffer retention and trimming, and the integrated
// fault-tolerant scale-out of Algorithm 3 for both bottleneck splitting
// and failure recovery.
//
// The data path is micro-batched and lock-light. Node input channels
// carry state.Batch — the same value a wire frame carries, so a batch
// crosses a socket without being rebuilt — and channel operations,
// duplicate detection and ack-watermark updates amortise across a
// batch. The per-tuple rules themselves are state.Instance's node step
// (Admit on receive, Emit on send), the same code the simulator runs.
// Each node routes through an atomically swapped route-table snapshot —
// the state.Hops Emit routes through (input indexes, routing state,
// output-buffer append handles) plus the target node pointers aligned
// with them, rebuilt only on Start/ScaleOut/Recover under an epoch
// counter — so the per-tuple path touches no engine lock and no
// plan-graph maps.
// Checkpoints are captured by a barrier processed on the node goroutine
// between batches (see lifecycle.go), which makes acks and operator
// state atomic with respect to processing. The narrow per-node mutex
// remains only for state shared across goroutines — acks inherited
// during replacement, output buffers trimmed by downstream checkpoints
// and repartitioned during scale out — and is taken once per batch, not
// per tuple.
//
// The engine trades the simulator's virtual time for wall-clock time; it
// is the runtime behind the runnable examples and can host any query
// built from plan.Query + operator factories.
package engine

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"seep/internal/control"
	"seep/internal/core"
	"seep/internal/metrics"
	"seep/internal/operator"
	"seep/internal/plan"
	"seep/internal/state"
	"seep/internal/stream"
)

// Config parameterises the engine.
type Config struct {
	// CheckpointInterval is c, the checkpointing interval (0 disables
	// checkpointing and buffering).
	CheckpointInterval time.Duration
	// TimerInterval drives TimeDriven operators (default 250 ms).
	TimerInterval time.Duration
	// BatchSize is the maximum number of tuples coalesced into one
	// channel delivery (default 128; 1 disables batching and restores
	// per-tuple sends).
	BatchSize int
	// BatchLinger bounds how long sources hold a partial batch before
	// flushing (default 10 ms, the legacy source tick). Operator nodes
	// never linger: staged output flushes at the end of each input
	// batch. Under send stalls a source adaptively stretches its
	// effective linger (up to maxLingerStretch ticks), trading latency
	// for batch fullness instead of piling batches onto a starved edge.
	BatchLinger time.Duration
	// QueueBound bounds, in tuples, the work toward any one node: its
	// input channel holds QueueBound/BatchSize batches (at least one)
	// counting the one the node goroutine has in hand, so senders past
	// it wait (default 4096). See backpressure.go.
	QueueBound int
	// MemoryLimit, when positive, arms the managed-state memory ceiling
	// on every stateful instance: a store whose approximate resident
	// footprint exceeds this many bytes spills cold key ranges to a
	// scratch directory and materialises them transparently on access
	// (state spilling, §3.3). 0 keeps all state in memory.
	MemoryLimit int64
	// Incremental enables incremental checkpoints for managed-state
	// operators (§3.2): between full checkpoints only the dirtied keys are
	// shipped and folded into the backup (state.Capture.Checkpoint).
	Incremental bool
	// Hosted restricts which instances this engine hosts (nil = all).
	// The distributed runtime gives every worker the full query but a
	// disjoint hosted subset; emissions to instances hosted elsewhere go
	// through the Remote link registered with SetRemote.
	Hosted func(plan.InstanceID) bool
	// Backup, when set, receives checkpoint captures instead of the
	// in-process backup store: the distributed runtime ships them to the
	// coordinator, which owns the authoritative store and sends
	// acknowledgement trims back (TrimUpstream). With Incremental set,
	// the coordinator folds incremental captures into the stored base.
	Backup BackupSink
}

// BackupSink receives checkpoint captures: the engine's own backup store
// (localSink), or a distributed worker's link to the coordinator.
type BackupSink interface {
	// Ship stores one capture, a full checkpoint or a delta (cp.Base ≠
	// 0). A non-nil error keeps the node's previous backup authoritative
	// and owes a full checkpoint; a refused delta is re-captured and
	// shipped as one at once, so a delta is never load-bearing.
	Ship(cp *state.Checkpoint) error
	// Accepts reports, cheaply and before anything is captured, whether
	// Ship could store a capture now. A periodic round it refuses
	// captures nothing, and every node keeps owing a full checkpoint.
	Accepts() bool
}

// Remote delivers batches to instances hosted by other processes — the
// network half of the node-link layer. Deliver takes ownership of b (the
// implementation recycles it once sent or dropped), and must preserve
// per-sender FIFO order toward each destination, which the receiver's
// duplicate detection relies on.
type Remote interface {
	Deliver(b state.Batch)
}

func (c Config) withDefaults() Config {
	if c.TimerInterval == 0 {
		c.TimerInterval = 250 * time.Millisecond
	}
	if c.QueueBound <= 0 {
		c.QueueBound = 4096
	}
	if c.BatchSize == 0 {
		c.BatchSize = 128
	}
	if c.BatchSize < 1 {
		c.BatchSize = 1
	}
	if c.BatchLinger <= 0 {
		c.BatchLinger = 10 * time.Millisecond
	}
	return c
}

// slots converts the tuple-denominated QueueBound into batches: the
// most one node holds queued or in hand.
func (c Config) slots() int { return max(c.QueueBound/c.BatchSize, 1) }

// ctrlKind discriminates control messages processed on the node
// goroutine between data batches.
type ctrlKind int

const (
	// ctrlBarrier asks the node to capture a checkpoint between batches
	// and reply on ctrlMsg.reply (the §3.2 checkpoint barrier).
	ctrlBarrier ctrlKind = iota
	// ctrlTick fires the operator's TimeDriven hook on the node
	// goroutine, so window flushes share the single-threaded emit path.
	ctrlTick
)

type ctrlMsg struct {
	kind  ctrlKind
	now   int64                  // ctrlTick: current time in millis
	reply chan *state.Checkpoint // ctrlBarrier: receives the captured state
}

// routeTable is an immutable snapshot of a node's downstream fan-out.
// It is rebuilt under the engine lock on Start/ScaleOut/Recover and
// swapped in atomically; the emit path loads it while holding the
// node's own mutex, which serialises it against buffer repartitioning
// during a replacement.
type routeTable struct {
	hops []state.Hop
	// nodes[h][i] is the local node of hops[h].Targets[i], nil where the
	// instance is hosted by another process.
	nodes [][]*node
	// remote reaches the targets whose node pointer is nil (nil in a
	// fully local deployment).
	remote Remote
}

// nodeSet is an immutable snapshot of the live nodes, grouped the way
// the periodic loops consume them, so timer ticks and checkpoint rounds
// do not rebuild slices under the engine lock every interval.
type nodeSet struct {
	epoch    uint64
	nodes    []*node
	timed    []*node // hosts a TimeDriven operator
	stateful []*node // checkpointable (neither source nor sink)
	byInst   map[plan.InstanceID]*node
	// legacyHosts maps a retired merge victim to the node holding its
	// legacy output buffer, so acknowledgement trims and downstream
	// recovery replays addressed to the old identity still find the
	// retained tuples. Nil when no merge has happened.
	legacyHosts map[plan.InstanceID]*node
}

// node hosts one operator instance as a goroutine.
type node struct {
	e    *Engine
	inst plan.InstanceID
	spec *plan.OpSpec
	op   operator.Operator

	in   chan state.Batch
	ctrl chan ctrlMsg
	// replayQueue is consumed before the channels on (re)start, so
	// replayed tuples precede newly routed ones.
	replayQueue []state.Batch
	// replayOut is a replacement's downstream replay — the retained
	// output its checkpoint carries — which the node goroutine sends
	// before it handles anything, so the replay precedes every tuple the
	// instance emits itself and no lock is held while it waits for room.
	replayOut []state.Batch

	// routes is the current route-table snapshot, loaded by the emit
	// path without any engine lock.
	routes atomic.Pointer[routeTable]

	// emitMu serialises whole emit passes (timestamp run + channel
	// sends) when several goroutines emit through the same node — the
	// source driver and concurrent InjectBatch callers. Stamping under
	// mu alone is not enough: once sends can BLOCK on a full input
	// after mu is released, two concurrent emitters can deliver their
	// batches out of timestamp order on the same edge, and the
	// receiver's per-sender watermark then discards the late lower run
	// as a duplicate. Held across the sends; stalls under it resolve
	// via the receiver's stop or engine shutdown, and no control-plane
	// path takes it, so barriers and reroutes still proceed around a
	// stalled holder.
	emitMu sync.Mutex

	// mu guards the embedded state bundle, which other goroutines reach:
	// Acks (inherited during replacement), Buffer and Legacy (trimmed by
	// downstream checkpoints, repartitioned during scale out),
	// OutClock (captured during restore), and Seq/NeedFull (shared
	// between the node goroutine's barrier capture and the checkpoint
	// loop's ship outcome). Store is nil on a stateless node. The data
	// path takes mu once per batch: one acquisition to dup-filter and
	// ack a whole input batch, one to stamp/buffer/route a whole output
	// batch.
	mu sync.Mutex
	state.Instance

	// outs receives the batches of one emitted chunk; guarded by emitMu.
	outs []state.Out

	// Owned by the node goroutine: the output staging area and the
	// reusable emitter bound to it (curBorn carries the lineage birth
	// time of the tuple or tick being processed).
	pend    []state.Staged
	curBorn int64
	emitFn  operator.Emitter

	// busy is set while the node goroutine handles a batch — from in or
	// from replayQueue — the in-hand part of UtilReports' queue fill.
	busy atomic.Bool
	// stalls counts sender waits on this node's full input; peakDepth
	// tracks the deepest input queue observed (batches).
	stalls    metrics.Counter
	peakDepth atomic.Int64

	stopped   chan struct{} // closed to stop the goroutine
	done      chan struct{} // closed when the goroutine exits
	failed    atomic.Bool
	processed metrics.Counter
	// failedAt is when Fail crash-stopped the node, the start of its
	// recovery's record (guarded by e.mu).
	failedAt int64
}

// Engine runs one query.
type Engine struct {
	cfg       Config
	mgr       *core.Manager
	factories map[plan.OpID]operator.Factory
	// backup receives every checkpoint capture: cfg.Backup, or localSink.
	backup BackupSink

	// mu guards nodes (and each node's failedAt), routings and topology
	// rebuilds. The data path never takes it: hot-path readers go through
	// the atomic route-table and node-set snapshots.
	mu       sync.RWMutex
	nodes    map[plan.InstanceID]*node
	routings map[plan.OpID]*state.Routing
	epoch    uint64

	// set is the current nodeSet snapshot, rebuilt with the route
	// tables under mu.
	set atomic.Pointer[nodeSet]

	// remote is the link layer for instances hosted by other processes
	// (nil in a fully local deployment). Written by SetRemote before
	// Start; read by route-table builds.
	remote Remote

	start    time.Time
	started  atomic.Bool
	stopAll  chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	// clockOffset shifts NowMillis into a foreign clock frame: the
	// distributed runtime aligns every worker engine to the
	// coordinator's job clock at start, so Born stamps and sink latency
	// observations across workers share one frame.
	clockOffset atomic.Int64

	// stalls counts sender waits on any node's full input.
	stalls metrics.Counter

	// spillMu guards spillStores: every store armed with a memory
	// ceiling, including stores of since-replaced nodes, closed (spill
	// files removed) on Stop.
	spillMu     sync.Mutex
	spillStores []*state.Store

	// linkFaults is the chaos harness's named fault point for the local
	// node-link layer: deliveries toward a listed destination operator
	// are delayed per emitted chunk, modelling a slow in-process link.
	// Nil when disarmed — the steady-state data path pays one atomic
	// pointer load per chunk, nothing else.
	linkFaults atomic.Pointer[map[plan.OpID]time.Duration]

	// scaler is the scaling policy (nil unless EnablePolicy ran, before
	// Start); its rounds run on the policy goroutine.
	scaler *control.Scaler

	sources []*sourceDriver

	// Latency records sink-observed end-to-end latency in ms.
	Latency *metrics.Histogram
	// SinkCount counts tuples arriving at sinks.
	SinkCount metrics.Counter
	// DupDropped counts tuples discarded by per-upstream duplicate
	// detection (replays already reflected in the ack watermark).
	DupDropped metrics.Counter
	// CheckpointsRefused counts full checkpoints captured but never
	// stored: the backup store or the sink refused them, the node owes a
	// full checkpoint and its previous backup stays authoritative.
	CheckpointsRefused metrics.Counter
	// OnSink observes every sink tuple (called from node goroutines).
	OnSink func(t stream.Tuple)
}

// New builds an engine for a validated query.
func New(cfg Config, q *plan.Query, factories map[plan.OpID]operator.Factory) (*Engine, error) {
	cfg = cfg.withDefaults()
	mgr, err := core.NewManager(q)
	if err != nil {
		return nil, err
	}
	e := &Engine{
		cfg:       cfg,
		mgr:       mgr,
		factories: factories,
		nodes:     make(map[plan.InstanceID]*node),
		routings:  make(map[plan.OpID]*state.Routing),
		stopAll:   make(chan struct{}),
		Latency:   &metrics.Histogram{},
	}
	if e.backup = cfg.Backup; e.backup == nil {
		e.backup = localSink{e}
	}
	for _, opID := range q.Ops() {
		e.routings[opID] = mgr.Routing(opID)
		spec := q.Op(opID)
		for _, inst := range mgr.Instances(opID) {
			if cfg.Hosted != nil && !cfg.Hosted(inst) {
				continue
			}
			n, err := e.newNode(inst, spec)
			if err != nil {
				return nil, err
			}
			e.nodes[inst] = n
		}
	}
	e.mu.Lock()
	e.rebuildTopology()
	e.mu.Unlock()
	return e, nil
}

func (e *Engine) newNode(inst plan.InstanceID, spec *plan.OpSpec) (*node, error) {
	var op operator.Operator
	if spec.Role != plan.RoleSource && spec.Role != plan.RoleSink {
		f, ok := e.factories[inst.Op]
		if !ok {
			return nil, fmt.Errorf("engine: no factory for operator %q", inst.Op)
		}
		op = f()
	}
	n := &node{
		e:        e,
		inst:     inst,
		spec:     spec,
		op:       op,
		Instance: state.NewInstance(operator.StoreOf(op)),
		in:       make(chan state.Batch, e.cfg.slots()-1),
		ctrl:     make(chan ctrlMsg, 2),
		stopped:  make(chan struct{}),
		done:     make(chan struct{}),
	}
	n.emitFn = func(k stream.Key, p any) { n.stage(k, p, n.curBorn) }
	if e.cfg.MemoryLimit > 0 && n.Store != nil {
		if err := n.Store.EnableSpill("", e.cfg.MemoryLimit); err != nil {
			return nil, fmt.Errorf("engine: %s: %w", inst, err)
		}
		e.spillMu.Lock()
		e.spillStores = append(e.spillStores, n.Store)
		e.spillMu.Unlock()
	}
	return n, nil
}

// rebuildTopology recomputes the node-set and per-node route-table
// snapshots under a fresh epoch. Invoked on New, Start and the steps of
// a transition — never on the data path.
//
// seep:locks e.mu
func (e *Engine) rebuildTopology() {
	e.epoch++
	set := &nodeSet{
		epoch:  e.epoch,
		byInst: make(map[plan.InstanceID]*node, len(e.nodes)),
	}
	for inst, n := range e.nodes {
		set.nodes = append(set.nodes, n)
		set.byInst[inst] = n
	}
	slices.SortFunc(set.nodes, func(a, b *node) int { return a.inst.Compare(b.inst) })
	for _, n := range set.nodes {
		if n.op != nil {
			if _, ok := n.op.(operator.TimeDriven); ok {
				set.timed = append(set.timed, n)
			}
		}
		if n.spec.Role != plan.RoleSource && n.spec.Role != plan.RoleSink {
			set.stateful = append(set.stateful, n)
		}
		n.mu.Lock()
		n.routes.Store(e.buildRoutes(n))
		for owner := range n.Legacy {
			if set.legacyHosts == nil {
				set.legacyHosts = make(map[plan.InstanceID]*node)
			}
			set.legacyHosts[owner] = n
		}
		n.mu.Unlock()
	}
	e.set.Store(set)
}

// buildRoutes resolves one node's downstream fan-out against the
// current routing state and node map. Both locks are required: the
// buffer handles live inside n.Buffer, guarded by n.mu against
// concurrent trims, and holding n.mu across the whole build also lets
// ApplyReroute swap a table atomically with buffer repartitioning.
//
// seep:locks e.mu n.mu
func (e *Engine) buildRoutes(n *node) *routeTable {
	hops := n.Hops(e.mgr.Query(), n.inst.Op, e.cfg.CheckpointInterval > 0,
		func(op plan.OpID) *state.Routing { return e.routings[op] })
	rt := &routeTable{hops: hops, nodes: make([][]*node, len(hops)), remote: e.remote}
	for i, h := range hops {
		rt.nodes[i] = make([]*node, len(h.Targets))
		for j, t := range h.Targets {
			rt.nodes[i][j] = e.nodes[t]
		}
	}
	return rt
}

// Manager exposes the query manager.
func (e *Engine) Manager() *core.Manager { return e.mgr }

// Backup returns the sink every capture is shipped to: Config.Backup, or
// the engine's own backup store.
func (e *Engine) Backup() BackupSink { return e.backup }

// NowMillis returns milliseconds since Start, shifted by the configured
// clock offset (zero outside the distributed runtime).
func (e *Engine) NowMillis() int64 {
	if e.start.IsZero() {
		return 0
	}
	return time.Since(e.start).Milliseconds() + e.clockOffset.Load()
}

// SetClockOffset aligns this engine's NowMillis to a foreign clock
// frame: NowMillis returns wall-time-since-Start plus ms. The
// distributed runtime calls it when the coordinator's start command
// arrives carrying the coordinator's current job time, so every
// worker's Born stamps and latency observations share the
// coordinator's frame (error ≈ one-way control-frame latency).
func (e *Engine) SetClockOffset(ms int64) { e.clockOffset.Store(ms) }

// Epoch returns the current topology epoch: it advances whenever the
// route-table snapshots are rebuilt (Start, ScaleOut, Recover).
func (e *Engine) Epoch() uint64 {
	if s := e.set.Load(); s != nil {
		return s.epoch
	}
	return 0
}

// Start launches all node goroutines, timers and checkpointing.
func (e *Engine) Start() {
	e.start = time.Now()
	e.mu.Lock()
	e.started.Store(true)
	for _, n := range e.nodes {
		e.startNode(n)
	}
	// Snapshot under the lock: a source added concurrently from here on
	// observes started == true and starts itself exactly once.
	sources := make([]*sourceDriver, len(e.sources))
	copy(sources, e.sources)
	e.mu.Unlock()

	e.wg.Add(1)
	go func() {
		defer e.wg.Done()
		tick := time.NewTicker(e.cfg.TimerInterval)
		defer tick.Stop()
		for {
			select {
			case <-e.stopAll:
				return
			case <-tick.C:
				e.fireTimers()
			}
		}
	}()
	if e.cfg.CheckpointInterval > 0 {
		e.wg.Add(1)
		go func() {
			defer e.wg.Done()
			tick := time.NewTicker(e.cfg.CheckpointInterval)
			defer tick.Stop()
			for {
				select {
				case <-e.stopAll:
					return
				case <-tick.C:
					e.checkpointAll()
				}
			}
		}()
	}
	for _, s := range sources {
		e.startSource(s)
	}
}

// Stop terminates all goroutines and waits for them. Idempotent: a
// graceful job stop (MsgStop) and a crash-stop (Worker.Kill) can race
// to tear down the same engine; both block until the one teardown
// finishes.
func (e *Engine) Stop() {
	e.stopOnce.Do(e.stop)
}

func (e *Engine) stop() {
	close(e.stopAll)
	e.mu.Lock()
	var ns []*node
	for _, n := range e.nodes {
		ns = append(ns, n)
	}
	e.mu.Unlock()
	for _, n := range ns {
		n.stop()
	}
	e.wg.Wait()
	// Disarm spilling last: CloseSpill materialises anything still on
	// disk (post-run state reads stay exact) and removes the scratch
	// files.
	e.spillMu.Lock()
	stores := e.spillStores
	e.spillStores = nil
	e.spillMu.Unlock()
	for _, st := range stores {
		st.CloseSpill()
	}
}

// startNode launches the node goroutine.
//
// seep:locks e.mu
func (e *Engine) startNode(n *node) {
	e.wg.Add(1)
	go func() {
		defer e.wg.Done()
		defer close(n.done)
		for _, b := range n.replayOut {
			e.sendReplay(b)
		}
		n.replayOut = nil
		for _, b := range n.replayQueue {
			n.take(b)
		}
		n.replayQueue = nil
		for {
			select {
			case <-n.stopped:
				// Drain to keep senders unblocked until channels empty.
				for {
					select {
					case <-n.in:
					case <-n.ctrl:
					default:
						return
					}
				}
			case c := <-n.ctrl:
				n.handleCtrl(c)
			case b := <-n.in:
				n.take(b)
			}
		}
	}()
}

// take handles one batch with it counted as in hand.
func (n *node) take(b state.Batch) {
	n.busy.Store(true)
	n.handleBatch(b)
	n.busy.Store(false)
}

// sendReplay sends one replayed batch toward its destination: onto a
// hosted node's input, waiting for room like any sender, or over the
// remote link.
//
// seep:blocking
func (e *Engine) sendReplay(b state.Batch) {
	if tn := e.set.Load().byInst[b.To]; tn != nil {
		tn.send(b)
	} else if e.remote != nil {
		e.remote.Deliver(b)
	}
}

func (n *node) stop() {
	select {
	case <-n.stopped:
	default:
		close(n.stopped)
	}
}

// handleCtrl processes a control message on the node goroutine, between
// data batches.
func (n *node) handleCtrl(c ctrlMsg) {
	switch c.kind {
	case ctrlBarrier:
		c.reply <- n.captureCheckpoint()
	case ctrlTick:
		if n.failed.Load() || n.op == nil {
			return
		}
		if td, ok := n.op.(operator.TimeDriven); ok {
			n.curBorn = c.now
			td.OnTime(c.now, n.emitFn)
			n.flushPending()
		}
	}
}

// handleBatch processes one input batch on the node goroutine:
// duplicate detection and ack-watermark advancement for the whole batch
// (state.Instance.Admit) under one lock acquisition, then per-tuple
// operator invocation, then one flush of the staged output. The batch is
// recycled once processing finishes (operators receive tuples by value
// and may retain payloads, never the batch).
func (n *node) handleBatch(b state.Batch) {
	defer b.Recycle()
	n.notePeakDepth()
	if n.failed.Load() || len(b.Tuples) == 0 {
		return
	}
	n.mu.Lock()
	kept := n.Admit(b)
	n.mu.Unlock()
	if dups := len(b.Tuples) - len(kept); dups > 0 {
		n.e.DupDropped.Add(uint64(dups))
	}
	if len(kept) == 0 {
		return
	}
	n.processed.Add(uint64(len(kept)))

	if n.spec.Role == plan.RoleSink {
		// One histogram update per run of equal latency: a batch's tuples
		// mostly share their birth millisecond.
		now := n.e.NowMillis()
		lat, run := int64(0), uint64(0)
		for _, t := range kept {
			if l := max(now-t.Born, 0); l != lat {
				n.e.Latency.ObserveN(lat, run)
				lat, run = l, 0
			}
			run++
			if n.e.OnSink != nil {
				n.e.OnSink(t)
			}
		}
		n.e.Latency.ObserveN(lat, run)
		n.e.SinkCount.Add(uint64(len(kept)))
		return
	}
	if n.op == nil {
		return
	}
	ctx := operator.Context{Now: n.e.NowMillis(), Input: b.Input}
	for _, t := range kept {
		n.curBorn = t.Born
		n.op.OnTuple(ctx, t, n.emitFn)
	}
	n.flushPending()
}

// stage buffers one emission on the node goroutine, flushing early when
// a full batch has accumulated (expansive operators can emit many
// tuples per input).
func (n *node) stage(key stream.Key, payload any, born int64) {
	n.pend = append(n.pend, state.Staged{Key: key, Payload: payload, Born: born})
	if len(n.pend) >= n.e.cfg.BatchSize {
		n.flushPending()
	}
}

// flushPending routes and sends everything staged on the node
// goroutine, then clears the staging slots so retained payload
// references do not outlive the flush.
func (n *node) flushPending() {
	if len(n.pend) == 0 {
		return
	}
	n.emitAll(n.pend)
	clear(n.pend)
	n.pend = n.pend[:0]
}

// emitAll stamps, buffers, routes and sends a slice of emissions in
// chunks of the configured batch size. Safe from any goroutine (node
// goroutines, source drivers, InjectBatch): each chunk takes the node
// mutex once.
func (n *node) emitAll(items []state.Staged) {
	bs := n.e.cfg.BatchSize
	for len(items) > 0 {
		chunk := items
		if len(chunk) > bs {
			chunk = items[:bs]
		}
		items = items[len(chunk):]
		n.emitChunk(chunk)
	}
}

// emitChunk is the core of the batched data path: under ONE acquisition
// of n.mu it loads the route-table snapshot and runs the node step's
// emit (state.Instance.Emit: stamp, retain, one batch per target); the
// sends happen after the lock is released. Loading the table inside the
// lock serialises emission against buffer repartitioning during a
// replacement: a tuple either lands in the buffer before repartitioning
// (and is replayed under the new routing) or is routed with the new
// table.
func (n *node) emitChunk(chunk []state.Staged) {
	// Per-sender FIFO: hold emitMu from timestamp assignment through the
	// last send, so concurrent emitters (driver + InjectBatch) cannot
	// deliver their runs out of order on a full edge.
	n.emitMu.Lock()
	defer n.emitMu.Unlock()
	n.mu.Lock()
	rt := n.routes.Load()
	if rt == nil {
		n.mu.Unlock()
		return
	}
	n.outs = n.Emit(n.outs[:0], n.inst, chunk, rt.hops)
	n.mu.Unlock()
	// Chaos-harness fault point "slow-link": one atomic load per chunk
	// when disarmed; when armed, a delivery toward a faulted downstream
	// operator waits out the configured delay before the send.
	if fm := n.e.linkFaults.Load(); fm != nil {
		for i := range n.outs {
			if d := (*fm)[n.outs[i].To.Op]; d > 0 {
				time.Sleep(d)
			}
		}
	}
	for i := range n.outs {
		o := &n.outs[i]
		switch tn := rt.nodes[o.Hop][o.Entry]; {
		case tn != nil:
			if !tn.send(o.Batch) {
				// Receiver stopped or engine shut down; the tuples stay in
				// our output buffer for replay after its replacement is
				// deployed.
				o.Recycle()
			}
		case rt.remote != nil:
			// A link to a failed host drops the batch — the tuples stay in
			// our output buffer for replay after recovery, exactly like
			// the stopped-receiver case above.
			rt.remote.Deliver(o.Batch)
		default:
			// Nowhere to send: retained only.
			o.Recycle()
		}
	}
	clear(n.outs)
}

// fireTimers delivers a tick to every node hosting a TimeDriven
// operator, to be processed on that node's goroutine. The node set is
// an atomic snapshot — no engine lock, no per-tick slice rebuild. A
// node whose control queue is full skips the tick; the next one follows
// within a timer interval.
func (e *Engine) fireTimers() {
	set := e.set.Load()
	if set == nil {
		return
	}
	now := e.NowMillis()
	for _, n := range set.timed {
		if n.failed.Load() {
			continue
		}
		select {
		case n.ctrl <- ctrlMsg{kind: ctrlTick, now: now}:
		default:
		}
	}
}

// InjectLinkDelay arms the "slow-link" fault point: every delivery
// toward an instance of op — local channel send or remote link — waits
// d before it is handed over, modelling a degraded link to that
// operator's hosts. Chaos-harness use only; disarmed engines pay one
// atomic pointer load per emitted chunk.
func (e *Engine) InjectLinkDelay(op plan.OpID, d time.Duration) {
	e.mu.Lock()
	defer e.mu.Unlock()
	next := make(map[plan.OpID]time.Duration)
	if cur := e.linkFaults.Load(); cur != nil {
		for k, v := range *cur {
			next[k] = v
		}
	}
	next[op] = d
	e.linkFaults.Store(&next)
}

// ClearLinkFaults heals every fault armed with InjectLinkDelay.
func (e *Engine) ClearLinkFaults() { e.linkFaults.Store(nil) }
