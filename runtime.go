package seep

import (
	"fmt"
	"sync"
	"time"

	"seep/internal/controlplane"
	"seep/internal/core"
	"seep/internal/engine"
	"seep/internal/metrics"
	"seep/internal/sim"
	"seep/internal/transport"
)

// Runtime is a substrate that can deploy a Topology: the live engine
// (goroutines, channels, wall-clock time) or the simulated cluster
// (deterministic discrete events, virtual time). Both run the same
// operator code under the same state-management protocol, so scenarios
// written against Runtime/Job run unchanged on either.
type Runtime interface {
	// Name identifies the substrate ("live" or "sim").
	Name() string
	// Deploy instantiates the topology on this substrate. The topology
	// is built (validated) on demand; construction and option errors are
	// returned here.
	Deploy(t *Topology) (Job, error)
}

// Job is a deployed topology. The same interface is implemented by both
// runtimes; only the flow of time differs — Run sleeps wall-clock time
// on the live engine and advances the virtual clock on the simulator.
//
// Operators are addressed logically by OpID; partitioned instances by
// InstanceID (see Instances).
type Job interface {
	// Start begins execution. On the live engine it launches the node
	// goroutines, timers and checkpointing; the simulator deploys
	// eagerly, so Start only arms it.
	Start()
	// Stop terminates execution. Stopping a Job twice is undefined.
	Stop()
	// Run advances time by d — wall-clock on the live engine (returning
	// early once the dataflow settles and no recovery is pending),
	// virtual on the simulator — processing whatever the topology does
	// in that span: source emission, checkpoints, scaling, recoveries.
	Run(d time.Duration)
	// AddSource attaches a rate-profiled tuple generator to a source
	// operator (its first instance; sources are pinned).
	AddSource(op OpID, rate RateFunc, gen Generator) error
	// InjectBatch emits exactly count tuples from a source operator —
	// for scenarios needing exact tuple counts rather than rates. Call
	// Run afterwards to process them.
	InjectBatch(op OpID, count int, gen Generator) error
	// Fail crash-stops the VM hosting an instance; backups it hosted are
	// lost. The runtime detects the failure after the configured
	// detection delay (WithDetectDelay) and recovers the operator via
	// the integrated scale-out algorithm with the configured parallelism
	// (WithRecoveryParallelism).
	Fail(inst InstanceID) error
	// ScaleOut splits a live instance into pi partitioned instances
	// (Algorithm 3), partitioning its managed state by key range.
	ScaleOut(victim InstanceID, pi int) error
	// ScaleIn merges sibling partitions owning adjacent key ranges back
	// into one instance (§3.3 merge), the inverse of ScaleOut: the
	// victims stop, their final checkpoints merge, upstream buffers
	// repartition and replay exactly-once. Policy-driven merges use the
	// same path (WithScaleIn).
	ScaleIn(victims []InstanceID) error
	// Instances returns the live partitioned instances of an operator.
	Instances(op OpID) []InstanceID
	// OperatorOf returns the operator object hosted by an instance, so
	// callers can inspect managed state (nil if unknown or source/sink).
	OperatorOf(inst InstanceID) any
	// OnSink registers an observer for every tuple arriving at a sink.
	// Call before Start.
	OnSink(fn func(t Tuple))
	// MetricsSnapshot returns a point-in-time view of the job's
	// externally observable behaviour.
	MetricsSnapshot() Metrics
}

// LinkFaulter is an optional Job capability for link-level chaos: a Job
// that also implements it can degrade or sever the links carrying
// tuples toward an operator's instances. The scenario runner
// (internal/scenario) type-asserts for it when executing `slow-link`
// and `partition-link` events.
//
//   - Live implements SlowLink (per-hop delay inside the engine) but
//     returns an error from PartitionLink: in-process channels cannot
//     lose data, so a partition is unrepresentable there.
//   - Distributed implements both at the transport layer: SlowLink
//     delays every frame toward the workers hosting the operator;
//     PartitionLink black-holes them, which starves the coordinator's
//     heartbeat probes and drives the ordinary failure-detection and
//     recovery path — a partition behaves exactly like a crashed VM.
//   - Simulated does not implement the interface (virtual time has no
//     links to fault).
//
// HealLinks removes every fault this job armed; Stop heals implicitly.
type LinkFaulter interface {
	// SlowLink adds delay to every delivery toward op's instances.
	SlowLink(op OpID, delay time.Duration) error
	// PartitionLink black-holes every delivery toward op's instances.
	PartitionLink(op OpID) error
	// HealLinks removes all link faults armed through this job.
	HealLinks()
}

// CoordinatorFaulter is an optional Job capability for control-plane
// chaos: a Job that also implements it can crash-stop and restart its
// coordinator while the data path keeps streaming. The scenario runner
// (internal/scenario) type-asserts for it when executing
// `kill-coordinator` and `restart-coordinator` events.
//
//   - Distributed implements it when deployed with WithControlPlaneDir:
//     KillCoordinator models kill -9 (no goodbye to workers — they go
//     orphan on heartbeat loss and refuse checkpoint ships, owing a
//     full checkpoint each);
//     RestartCoordinator replays the journal into a fresh coordinator on
//     the dead one's address, reattaches the still-running workers via
//     the MsgResume/MsgReattach handshake, and rolls back any journaled
//     transition caught without a commit record.
//   - Live and Simulated do not implement the interface: their
//     control plane lives and dies with the process.
type CoordinatorFaulter interface {
	// KillCoordinator crash-stops the coordinator. Workers keep
	// streaming; an error means the job has no durable control plane to
	// restart from (deploy with WithControlPlaneDir).
	KillCoordinator() error
	// RestartCoordinator rebuilds the coordinator from its journal and
	// reattaches the workers. Blocks until reconciliation completes
	// (queued rollback recoveries may still be draining).
	RestartCoordinator() error
}

// Measurement types shared by both runtimes.
type (
	// Summary is a latency-distribution snapshot (count, mean, tail
	// percentiles) in milliseconds.
	Summary = metrics.Summary
	// RecoveryRecord documents one completed recovery, scale out or
	// merge, as the query manager recorded it.
	RecoveryRecord = core.Record
	// CheckpointStats tallies full and incremental checkpoint traffic
	// into the backup store (counts and serialised bytes).
	CheckpointStats = core.ShipStats
	// TransportStats tallies network activity — bytes and frames in both
	// directions, reconnects, heartbeat misses, corrupt frames. Always
	// zero on the in-process runtimes.
	TransportStats = transport.Stats
	// BackpressureStats tallies the bounded-queue flow control and state
	// spilling: per-edge queue depth and send-stall gauges plus
	// spill/load counters from memory-limited stores. Zero on the
	// Simulated runtime (virtual time has no queues to bound).
	BackpressureStats = engine.BackpressureStats
	// ControlPlaneStats tallies the Distributed coordinator's durable
	// control plane: journal appends and bytes, synced-write latency, and — after a coordinator restart — replay size/duration, how many
	// workers reattached and the failover wall-clock. Always zero without
	// WithControlPlaneDir.
	ControlPlaneStats = controlplane.Stats
)

// Metrics is a point-in-time snapshot of a Job, identical in shape on
// both substrates. Times are milliseconds since Start — wall-clock for
// the live engine, virtual for the simulator.
type Metrics struct {
	// ElapsedMillis is the job's running time.
	ElapsedMillis int64
	// SinkTuples counts tuples delivered to sinks.
	SinkTuples uint64
	// DuplicatesDropped counts replayed tuples discarded by duplicate
	// detection.
	DuplicatesDropped uint64
	// Latency summarises sink-observed end-to-end latency.
	Latency Summary
	// Parallelism maps each logical operator to its current number of
	// partitioned instances.
	Parallelism map[OpID]int
	// Recoveries lists completed recoveries, scale outs and merges
	// (Merge records), oldest first — the query manager's own record of
	// every transition, policy-driven ones included, identical in content
	// on all three substrates.
	Recoveries []RecoveryRecord
	// Merges counts completed scale-in merges.
	Merges uint64
	// Checkpoints tallies checkpoint traffic to the backup store; with
	// WithIncrementalCheckpoints, Deltas/DeltaBytes show how much
	// shipping shrank versus full snapshots.
	Checkpoints CheckpointStats
	// Transport tallies the Distributed runtime's network activity
	// across the coordinator and all workers (zero on Live/Simulated).
	Transport TransportStats
	// Backpressure tallies send stalls, queue depths and state-spill
	// activity (WithQueueBound / WithMemoryLimit); aggregated across all
	// workers on the Distributed runtime.
	Backpressure BackpressureStats
	// CheckpointsRefused counts full checkpoints captured but never
	// stored — refused as too large for one frame, as stale, for want
	// of a backup host, or, on Distributed, while the worker's
	// coordinator is unreachable (an orphaned worker's periodic rounds
	// capture nothing, so they count nothing). The instance keeps owing
	// a full checkpoint and its previous backup stays authoritative.
	// Always zero on Simulated.
	CheckpointsRefused uint64
	// ControlPlane tallies the Distributed coordinator's journal and
	// failover activity (zero without WithControlPlaneDir).
	ControlPlane ControlPlaneStats
	// Errors lists asynchronous operations that failed — an automatic
	// recovery that could not complete, for example. Empty on a healthy
	// job; never silently dropped.
	Errors []string
}

const (
	defaultLiveCheckpoint = 500 * time.Millisecond
	defaultDetectDelay    = 500 * time.Millisecond
)

// engineConfig is the engine configuration Live runs and Distributed
// forwards to every worker: the settings the options made, with the
// wall-clock checkpoint default.
func (c *runtimeConfig) engineConfig() engine.Config {
	cfg := c.engine
	if !c.checkpointSet {
		cfg.CheckpointInterval = defaultLiveCheckpoint
	}
	return cfg
}

// Live returns the live-engine runtime: operator instances run as
// goroutines connected by channels under wall-clock time, with periodic
// checkpointing (default every 500 ms; WithCheckpointInterval(0)
// disables), live scale out and failure recovery.
func Live(opts ...Option) Runtime { return &liveRuntime{cfg: buildConfig(opts)} }

// Simulated returns the simulated-cluster runtime that substitutes for
// the paper's EC2 deployment: a deterministic discrete-event simulation
// with a VM model, CPU-cost accounting, a pre-allocated VM pool,
// failure injection and virtual time. Fault tolerance defaults to the
// paper's recovery with state management (FTRSM).
func Simulated(opts ...Option) Runtime { return &simRuntime{cfg: buildConfig(opts)} }

// liveRuntime deploys onto the live engine.
type liveRuntime struct{ cfg *runtimeConfig }

func (r *liveRuntime) Name() string { return "live" }

func (r *liveRuntime) Deploy(t *Topology) (Job, error) {
	if err := r.cfg.checkSubstrate("live"); err != nil {
		return nil, err
	}
	if err := r.cfg.validate(); err != nil {
		return nil, err
	}
	q, factories, err := t.built()
	if err != nil {
		return nil, err
	}
	eng, err := engine.New(r.cfg.engineConfig(), q, factories)
	if err != nil {
		return nil, err
	}
	if r.cfg.policy != nil {
		eng.EnablePolicy(*r.cfg.policy, r.cfg.scaleIn)
	}
	j := &liveJob{
		eng:        eng,
		detect:     defaultDetectDelay,
		recoveryPi: max(r.cfg.recoveryPi, 1),
		stop:       make(chan struct{}),
	}
	if r.cfg.detect > 0 {
		j.detect = r.cfg.detect
	}
	return j, nil
}

// liveJob adapts the live engine to the Job interface and adds the
// failure-detection/recovery loop the bare engine leaves to callers.
type liveJob struct {
	eng        *engine.Engine
	detect     time.Duration
	recoveryPi int
	stop       chan struct{}

	mu      sync.Mutex
	pending int // in-flight automatic recoveries
	errs    []string
}

func (j *liveJob) Start() { j.eng.Start() }

func (j *liveJob) Stop() {
	close(j.stop)
	// Let in-flight recoveries finish or abort before tearing the
	// engine down.
	deadline := time.Now().Add(5 * time.Second)
	for j.pendingRecoveries() > 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	j.eng.Stop()
}

func (j *liveJob) pendingRecoveries() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.pending
}

func (j *liveJob) Run(d time.Duration) {
	deadline := time.Now().Add(d)
	for j.pendingRecoveries() > 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	rem := time.Until(deadline)
	// Recoveries consumed the span: still give replay a moment to
	// settle so post-Run assertions see restored state.
	if rem < 250*time.Millisecond {
		rem = 250 * time.Millisecond
	}
	j.eng.Quiesce(50*time.Millisecond, rem)
}

func (j *liveJob) AddSource(op OpID, rate RateFunc, gen Generator) error {
	inst, err := sourceInstance(j.eng.Manager(), op)
	if err != nil {
		return err
	}
	return j.eng.AddSourceFunc(inst, rate, gen)
}

func (j *liveJob) InjectBatch(op OpID, count int, gen Generator) error {
	inst, err := sourceInstance(j.eng.Manager(), op)
	if err != nil {
		return err
	}
	return j.eng.InjectBatch(inst, count, gen)
}

func (j *liveJob) Fail(inst InstanceID) error {
	if err := j.eng.Fail(inst); err != nil {
		return err
	}
	j.mu.Lock()
	j.pending++
	j.mu.Unlock()
	go func() {
		defer func() {
			j.mu.Lock()
			j.pending--
			j.mu.Unlock()
		}()
		detect := time.NewTimer(j.detect)
		defer detect.Stop()
		select {
		case <-detect.C:
		case <-j.stop:
			return
		}
		if err := j.eng.Recover(inst, j.recoveryPi); err != nil {
			j.mu.Lock()
			j.errs = append(j.errs, fmt.Sprintf("recover %s (pi=%d): %v", inst, j.recoveryPi, err))
			j.mu.Unlock()
		}
	}()
	return nil
}

// SlowLink delays every delivery toward op's instances inside the
// engine (the live runtime has no wire to fault).
func (j *liveJob) SlowLink(op OpID, delay time.Duration) error {
	if len(j.eng.Manager().Instances(op)) == 0 {
		return fmt.Errorf("seep: no instances of operator %q", op)
	}
	j.eng.InjectLinkDelay(op, delay)
	return nil
}

// PartitionLink is unrepresentable on the live runtime: in-process
// channels never lose data, so a partition would be a silent no-op.
func (j *liveJob) PartitionLink(op OpID) error {
	return fmt.Errorf("seep: partition-link is not supported by the Live runtime (supported on: Distributed) — in-process channels cannot drop frames; use slow-link or Fail")
}

func (j *liveJob) HealLinks() { j.eng.ClearLinkFaults() }

func (j *liveJob) ScaleOut(victim InstanceID, pi int) error {
	return j.eng.ScaleOut(victim, pi)
}

func (j *liveJob) ScaleIn(victims []InstanceID) error {
	return j.eng.MergeInstances(victims)
}

func (j *liveJob) Instances(op OpID) []InstanceID { return j.eng.Manager().Instances(op) }

func (j *liveJob) OperatorOf(inst InstanceID) any { return j.eng.OperatorOf(inst) }

func (j *liveJob) OnSink(fn func(t Tuple)) { j.eng.OnSink = fn }

func (j *liveJob) MetricsSnapshot() Metrics {
	j.mu.Lock()
	errs := make([]string, len(j.errs))
	copy(errs, j.errs)
	j.mu.Unlock()
	mgr := j.eng.Manager()
	return Metrics{
		ElapsedMillis:      j.eng.NowMillis(),
		SinkTuples:         j.eng.SinkCount.Value(),
		DuplicatesDropped:  j.eng.DupDropped.Value(),
		CheckpointsRefused: j.eng.CheckpointsRefused.Value(),
		Latency:            j.eng.Latency.Summarize(),
		Parallelism:        parallelismOf(mgr),
		Recoveries:         mgr.Records(),
		Merges:             mgr.Merges(),
		Checkpoints:        mgr.Backups().ShipStats(),
		Backpressure:       j.eng.BackpressureSnapshot(),
		Errors:             errs,
	}
}

// simRuntime deploys onto the simulated cluster.
type simRuntime struct{ cfg *runtimeConfig }

func (r *simRuntime) Name() string { return "sim" }

func (r *simRuntime) Deploy(t *Topology) (Job, error) {
	if err := r.cfg.checkSubstrate("sim"); err != nil {
		return nil, err
	}
	if err := r.cfg.validate(); err != nil {
		return nil, err
	}
	// On the live engine 0 disables checkpointing; the simulator has no
	// such setting (disable via WithFTMode(FTNone)), so an explicit 0
	// must not silently coerce to the 5 s simulator default.
	if r.cfg.checkpointSet && r.cfg.engine.CheckpointInterval == 0 {
		return nil, fmt.Errorf("seep: WithCheckpointInterval(0) is not supported by the Simulated runtime; use WithFTMode(FTNone) to disable checkpointing")
	}
	q, factories, err := t.built()
	if err != nil {
		return nil, err
	}
	mode := FTRSM
	if r.cfg.ftModeSet {
		mode = r.cfg.ftMode
	}
	// Incremental checkpoints are part of the R+SM protocol; under the
	// baselines there are no checkpoints to make incremental, so the
	// combination is an error, never a silent no-op.
	if r.cfg.engine.Incremental && mode != FTRSM {
		return nil, fmt.Errorf("seep: WithIncrementalCheckpoints requires FTRSM (got %v)", mode)
	}
	cfg := sim.Config{
		Seed:                     r.cfg.seed,
		Mode:                     mode,
		CheckpointIntervalMillis: r.cfg.engine.CheckpointInterval.Milliseconds(),
		TimerMillis:              r.cfg.engine.TimerInterval.Milliseconds(),
		DetectDelayMillis:        r.cfg.detect.Milliseconds(),
		RecoveryParallelism:      r.cfg.recoveryPi,
		Incremental:              r.cfg.engine.Incremental,
	}
	if r.cfg.pool != nil {
		cfg.Pool = *r.cfg.pool
	}
	c, err := sim.NewCluster(cfg, q, factories)
	if err != nil {
		return nil, err
	}
	if r.cfg.policy != nil {
		c.EnablePolicy(*r.cfg.policy, r.cfg.scaleIn)
	}
	return &simJob{c: c}, nil
}

// simJob adapts the simulated cluster to the Job interface.
type simJob struct{ c *sim.Cluster }

// Start is a no-op: the simulated cluster deploys eagerly and executes
// as virtual time advances (Run).
func (j *simJob) Start() {}

// Stop halts the simulation kernel; subsequent Run calls do nothing.
func (j *simJob) Stop() { j.c.Sim().Halt() }

func (j *simJob) Run(d time.Duration) {
	j.c.RunUntil(j.c.Sim().Now() + d.Milliseconds())
}

func (j *simJob) AddSource(op OpID, rate RateFunc, gen Generator) error {
	inst, err := sourceInstance(j.c.Manager(), op)
	if err != nil {
		return err
	}
	return j.c.AddSource(inst, rate, gen)
}

func (j *simJob) InjectBatch(op OpID, count int, gen Generator) error {
	inst, err := sourceInstance(j.c.Manager(), op)
	if err != nil {
		return err
	}
	return j.c.InjectBatch(inst, count, gen)
}

func (j *simJob) Fail(inst InstanceID) error { return j.c.FailInstance(inst) }

func (j *simJob) ScaleOut(victim InstanceID, pi int) error { return j.c.ScaleOut(victim, pi) }

func (j *simJob) ScaleIn(victims []InstanceID) error { return j.c.ScaleIn(victims) }

func (j *simJob) Instances(op OpID) []InstanceID { return j.c.LiveInstances(op) }

func (j *simJob) OperatorOf(inst InstanceID) any {
	if op := j.c.OperatorOf(inst); op != nil {
		return op
	}
	return nil
}

func (j *simJob) OnSink(fn func(t Tuple)) { j.c.OnSink = fn }

func (j *simJob) MetricsSnapshot() Metrics {
	mgr := j.c.Manager()
	return Metrics{
		ElapsedMillis:     j.c.Sim().Now(),
		SinkTuples:        j.c.SinkCount.Value(),
		DuplicatesDropped: j.c.DuplicatesDropped(),
		Latency:           j.c.Latency.Summarize(),
		Parallelism:       parallelismOf(mgr),
		Recoveries:        mgr.Records(),
		Merges:            mgr.Merges(),
		Checkpoints:       mgr.Backups().ShipStats(),
		Errors:            j.c.RecoveryFailures(),
	}
}

// sourceInstance resolves a source operator to its first instance
// (sources are pinned).
func sourceInstance(mgr *core.Manager, op OpID) (InstanceID, error) {
	insts := mgr.Instances(op)
	if len(insts) == 0 {
		return InstanceID{}, fmt.Errorf("seep: no instances of operator %q", op)
	}
	return insts[0], nil
}

func parallelismOf(mgr *core.Manager) map[OpID]int {
	ops := mgr.Query().Ops()
	out := make(map[OpID]int, len(ops))
	for _, op := range ops {
		out[op] = mgr.Parallelism(op)
	}
	return out
}
