package seep

import (
	"fmt"
	"strings"
	"time"

	"seep/internal/engine"
)

// Option configures a Runtime built by Live, Simulated or Distributed.
// Options apply to one substrate or several; deploying a topology with
// an option the substrate does not support is an error (reported by
// Runtime.Deploy) naming both the option and the substrates that do
// accept it — never a silent no-op.
type Option func(*runtimeConfig)

// runtimeConfig is the merged option set. Zero values mean "use the
// substrate default".
type runtimeConfig struct {
	// engine holds every engine setting (checkpoint and timer intervals,
	// batching, queue bound, memory limit, incremental checkpoints) as
	// the options made it: the Live engine and every Distributed worker
	// run it (engineConfig); the simulator reads the three it shares. The
	// *Set flags record which options ran, for validation and defaults.
	engine         engine.Config
	checkpointSet  bool
	batchSet       bool
	queueBoundSet  bool
	memoryLimitSet bool

	// Shared.
	policy        *Policy
	scaleIn       *ScaleInPolicy
	detect        time.Duration
	detectSet     bool
	recoveryPi    int
	recoveryPiSet bool

	// Simulated cluster only.
	seed      int64
	ftMode    FTMode
	ftModeSet bool
	pool      *PoolConfig

	// Distributed runtime only.
	workers         int
	workersSet      bool
	workerAddrs     []string
	topoName        string
	coordAddr       string
	controlPlaneDir string
	standbyAddr     string

	// restricted records every substrate-restricted option that was
	// set, with the substrates that DO accept it, so the wrong substrate
	// rejects it naming both (never a silent no-op).
	restricted []restrictedOption
}

// restrictedOption names one set option and the substrates accepting it.
type restrictedOption struct {
	name    string
	accepts []string // runtime names: "live", "sim", "dist"
	note    string   // optional clarification appended to the error
}

func (c *runtimeConfig) restrict(name string, note string, accepts ...string) {
	c.restricted = append(c.restricted, restrictedOption{name: name, accepts: accepts, note: note})
}

// universalOptions lists every exported option accepted by all three
// substrates. Together with the c.restrict calls inside the restricted
// options it forms the closed option/substrate matrix: the optmatrix
// analyzer (seep-lint) verifies that each exported With* constructor
// appears in exactly one of the two registries, and TestUniversalOptions
// verifies the entries here really do deploy without restriction.
var universalOptions = []string{
	"WithBatching",
	"WithCheckpointInterval",
	"WithDetectDelay",
	"WithIncrementalCheckpoints",
	"WithPolicy",
	"WithRecoveryParallelism",
	"WithScaleIn",
	"WithSeed",
	"WithTimerInterval",
}

// substrateName maps a runtime name to its constructor's name.
func substrateName(runtime string) string {
	switch runtime {
	case "live":
		return "Live"
	case "sim":
		return "Simulated"
	case "dist":
		return "Distributed"
	}
	return runtime
}

// checkSubstrate rejects every set option the given substrate does not
// accept, naming the offending option and the substrates that do.
func (c *runtimeConfig) checkSubstrate(runtime string) error {
	var msgs []string
	for _, r := range c.restricted {
		ok := false
		for _, a := range r.accepts {
			if a == runtime {
				ok = true
				break
			}
		}
		if ok {
			continue
		}
		supported := make([]string, len(r.accepts))
		for i, a := range r.accepts {
			supported[i] = substrateName(a)
		}
		msg := fmt.Sprintf("option %s is not supported by the %s runtime (supported on: %s)",
			r.name, substrateName(runtime), strings.Join(supported, ", "))
		if r.note != "" {
			msg += " — " + r.note
		}
		msgs = append(msgs, msg)
	}
	if len(msgs) == 0 {
		return nil
	}
	return fmt.Errorf("seep: %s", strings.Join(msgs, "; "))
}

func buildConfig(opts []Option) *runtimeConfig {
	cfg := &runtimeConfig{}
	for _, o := range opts {
		o(cfg)
	}
	return cfg
}

// validate rejects option values that would otherwise be silently
// coerced to a substrate default.
func (c *runtimeConfig) validate() error {
	if c.detectSet && c.detect <= 0 {
		return fmt.Errorf("seep: WithDetectDelay requires a positive duration, got %v", c.detect)
	}
	if c.recoveryPiSet && c.recoveryPi < 1 {
		return fmt.Errorf("seep: WithRecoveryParallelism requires pi >= 1, got %d", c.recoveryPi)
	}
	if c.checkpointSet && c.engine.CheckpointInterval < 0 {
		return fmt.Errorf("seep: WithCheckpointInterval requires a non-negative duration, got %v", c.engine.CheckpointInterval)
	}
	if c.workersSet && c.workers < 1 {
		return fmt.Errorf("seep: WithWorkers requires n >= 1, got %d", c.workers)
	}
	if c.standbyAddr != "" && c.controlPlaneDir == "" {
		return fmt.Errorf("seep: WithStandbyAddr requires WithControlPlaneDir (without a journal there is no state to resume from)")
	}
	if len(c.workerAddrs) > 0 && c.topoName == "" {
		return fmt.Errorf("seep: WithWorkerAddrs requires WithTopologyName (external workers instantiate topologies from their registry by name)")
	}
	if c.batchSet {
		if c.engine.BatchSize < 1 {
			return fmt.Errorf("seep: WithBatching requires size >= 1, got %d", c.engine.BatchSize)
		}
		// A ticker-driven source cannot flush with zero delay, so a 0
		// linger would be silently coerced to the engine default —
		// reject it instead (the options contract: no silent coercion).
		if c.engine.BatchLinger <= 0 {
			return fmt.Errorf("seep: WithBatching requires a positive linger, got %v", c.engine.BatchLinger)
		}
	}
	if c.queueBoundSet && c.engine.QueueBound < 1 {
		return fmt.Errorf("seep: WithQueueBound requires n >= 1 tuples, got %d", c.engine.QueueBound)
	}
	if c.memoryLimitSet && c.engine.MemoryLimit < 1 {
		return fmt.Errorf("seep: WithMemoryLimit requires a positive byte ceiling, got %d", c.engine.MemoryLimit)
	}
	if c.scaleIn != nil {
		// Scale in rides the scaling policy's utilisation reports.
		if c.policy == nil {
			return fmt.Errorf("seep: WithScaleIn requires WithPolicy")
		}
		p := *c.scaleIn
		if p.LowWatermark <= 0 {
			return fmt.Errorf("seep: WithScaleIn requires a positive low watermark, got %v", p.LowWatermark)
		}
		// Hysteresis: a merged pair's combined load is about the sum of
		// its halves, so the low watermark must sit below half the
		// scale-out threshold δ — otherwise a merge could land above δ
		// and immediately re-split, oscillating forever at steady load.
		if hi := c.policy.Threshold; hi > 0 && 2*p.LowWatermark >= hi {
			return fmt.Errorf("seep: WithScaleIn low watermark %v would oscillate against the scale-out threshold %v: require 2*low < threshold (hysteresis)",
				p.LowWatermark, hi)
		}
	}
	return nil
}

// WithCheckpointInterval sets c, the checkpointing interval of §3.2. On
// the live engine an interval of 0 disables checkpointing and output
// buffering; on the simulated cluster checkpointing is governed by the
// fault-tolerance mode (WithFTMode) and this sets its period.
func WithCheckpointInterval(d time.Duration) Option {
	return func(c *runtimeConfig) { c.engine.CheckpointInterval = d; c.checkpointSet = true }
}

// WithIncrementalCheckpoints enables §3.2's incremental checkpoints for
// operators on the managed keyed-state API: between full checkpoints the
// runtime ships only the keys dirtied since the previous checkpoint, and
// the backup host folds them into the stored base when it stores them,
// so recovery restores one full checkpoint and folds nothing. Every
// tenth checkpoint is full, as is any whose delta would exceed half the
// last full one. Those are fixed, and what they bound is staleness, not
// recovery work: on the Distributed runtime a delta ships to the
// coordinator like a full checkpoint, with its base and deleted keys
// beside it, and a delta whose base the coordinator lacks is dropped
// without telling the worker, so its backup stays stale until the next
// full one, at most nine checkpoint intervals later. Applies to all
// three substrates (Simulated: FTRSM mode only; combining with another
// FT mode is a Deploy error). Observe the effect via
// Metrics.Checkpoints.
func WithIncrementalCheckpoints() Option {
	return func(c *runtimeConfig) { c.engine.Incremental = true }
}

// WithBatching sets the live engine's micro-batch parameters: up to
// size tuples are coalesced into one channel delivery, amortising
// channel operations, duplicate detection and ack-watermark updates,
// and linger bounds how long a source holds a partial batch before
// flushing (operator nodes never linger — staged output flushes at the
// end of each input batch). size 1 disables batching; linger must be
// positive (sources flush on a ticker, so zero delay does not exist);
// the engine default is 128 tuples with a 10 ms source linger.
//
// Larger batches raise throughput but add up to one linger of latency
// at the source and coarsen checkpoint-barrier granularity (a barrier
// waits for the in-progress batch). The Simulated runtime accepts the
// option as a documented no-op: virtual time processes events
// point-to-point, so there is nothing to coalesce and results are
// identical with or without it.
func WithBatching(size int, linger time.Duration) Option {
	return func(c *runtimeConfig) {
		c.engine.BatchSize = size
		c.engine.BatchLinger = linger
		c.batchSet = true
	}
}

// WithTimerInterval sets the period at which TimeDriven operators
// (windows) are ticked.
func WithTimerInterval(d time.Duration) Option {
	return func(c *runtimeConfig) { c.engine.TimerInterval = d }
}

// WithPolicy enables the bottleneck-driven scaling policy of §5.1:
// operators whose utilisation stays above the threshold are split. The
// simulated cluster reports VM CPU utilisation; the live engine reports
// input-queue backpressure.
func WithPolicy(p Policy) Option {
	return func(c *runtimeConfig) { c.policy = &p }
}

// WithDetectDelay sets the failure-detection delay: the time between
// Job.Fail crash-stopping an instance and the runtime starting its
// recovery (default 500 ms). Must be positive.
func WithDetectDelay(d time.Duration) Option {
	return func(c *runtimeConfig) { c.detect = d; c.detectSet = true }
}

// WithRecoveryParallelism sets π used when recovering failed operators
// (1 = serial recovery; ≥2 = parallel recovery, §4.2). An instance a
// failed transition stranded is always recovered at π = 1.
func WithRecoveryParallelism(pi int) Option {
	return func(c *runtimeConfig) { c.recoveryPi = pi; c.recoveryPiSet = true }
}

// WithQueueBound bounds the work toward every operator node to n tuples,
// n/batch size batches (at least one) queued on its input channel or in
// its hands — the end-to-end flow control: a sender whose downstream
// node's input is full waits instead of growing the queue — a local
// emitter on the channel, a remote one on its socket, because the
// receiving worker stops reading the connection until the node has room
// for the batch — and sources adaptively stretch their batch linger
// while inputs are full. Unset, the bound is 4096 tuples.
// Stalls surface in Metrics.Backpressure. Live and Distributed runtimes;
// the simulator's virtual time has no queues to bound.
func WithQueueBound(n int) Option {
	return func(c *runtimeConfig) {
		c.engine.QueueBound = n
		c.queueBoundSet = true
		c.restrict("WithQueueBound", "", "live", "dist")
	}
}

// WithMemoryLimit caps the resident bytes of each stateful instance's
// managed state store: past the ceiling, cold key ranges spill to disk
// via the §3.3 spill primitive and materialise transparently on access.
// Checkpoints, partition and merge see the full state regardless of what
// is spilled. Spill activity surfaces in Metrics.Backpressure.Spill.
// Live and Distributed runtimes; simulated state never leaves memory.
func WithMemoryLimit(bytes int64) Option {
	return func(c *runtimeConfig) {
		c.engine.MemoryLimit = bytes
		c.memoryLimitSet = true
		c.restrict("WithMemoryLimit", "", "live", "dist")
	}
}

// WithSeed fixes the pseudo-random seed of a run. Accepted on every
// substrate: the Simulated runtime seeds its discrete-event kernel (two
// runs with the same seed replay event-for-event), while Live and
// Distributed have no runtime randomness of their own — there the seed
// is carried for reproducibility tooling (the scenario runner derives
// its deterministic workloads from it and echoes it in output and
// failures, so any reported run can be replayed exactly).
func WithSeed(seed int64) Option {
	return func(c *runtimeConfig) {
		c.seed = seed
	}
}

// WithFTMode selects the fault-tolerance mechanism under evaluation
// (§6.2): FTRSM (the paper's recovery with state management), FTNone,
// FTUpstreamBackup or FTSourceReplay. Simulated runtime only — the live
// engine always runs the paper's state-management protocol.
func WithFTMode(m FTMode) Option {
	return func(c *runtimeConfig) {
		c.ftMode = m
		c.ftModeSet = true
		c.restrict("WithFTMode", "", "sim")
	}
}

// WithVMPool configures the pre-allocated VM pool that masks IaaS
// provisioning delays (§5.2). Simulated runtime only.
func WithVMPool(p PoolConfig) Option {
	return func(c *runtimeConfig) {
		c.pool = &p
		c.restrict("WithVMPool", "", "sim")
	}
}

// WithScaleIn enables elastic scale in (§8 future work, the dual of the
// scale-out policy) on every substrate: when EVERY partition of an
// operator reports utilisation below the low watermark for the
// configured number of consecutive rounds, the adjacent pair with the
// lowest combined load is merged back into one instance — partitioned
// state merged via the checkpoint merge primitive (§3.3), buffers
// repartitioned and replayed exactly-once. Requires WithPolicy, and the
// low watermark must satisfy 2*LowWatermark < Policy.Threshold so a
// merged pair cannot immediately re-trigger a split (hysteresis; a
// violating combination is a Deploy error). Completed merges surface in
// Metrics.Merges and Metrics.Recoveries (Merge records). Jobs can also
// merge explicitly with Job.ScaleIn.
func WithScaleIn(p ScaleInPolicy) Option {
	return func(c *runtimeConfig) { c.scaleIn = &p }
}

// WithWorkers sets how many in-process loopback workers the Distributed
// runtime spawns (default 3). Each worker is a full coordinator-managed
// host with its own TCP listener — real frames, real failure detection —
// inside one process, which is the test and development mode. Mutually
// exclusive with WithWorkerAddrs. Distributed runtime only.
func WithWorkers(n int) Option {
	return func(c *runtimeConfig) {
		c.workers = n
		c.workersSet = true
		c.restrict("WithWorkers", "", "dist")
	}
}

// WithWorkerAddrs connects the Distributed runtime to external
// seep-worker daemons (cmd/seep-worker) instead of spawning in-process
// workers. Requires WithTopologyName, since Go cannot ship operator code:
// every daemon's registry must have the topology registered under that
// name. Distributed runtime only.
func WithWorkerAddrs(addrs ...string) Option {
	return func(c *runtimeConfig) {
		c.workerAddrs = append(c.workerAddrs, addrs...)
		c.restrict("WithWorkerAddrs", "", "dist")
	}
}

// WithTopologyName names the topology for worker registries (external
// deployments). Distributed runtime only.
func WithTopologyName(name string) Option {
	return func(c *runtimeConfig) {
		c.topoName = name
		c.restrict("WithTopologyName", "", "dist")
	}
}

// WithCoordinatorAddr sets the coordinator's listen address (default
// "127.0.0.1:0"). External workers dial back to it, so for multi-host
// deployments it must be reachable from every worker. Distributed
// runtime only.
func WithCoordinatorAddr(addr string) Option {
	return func(c *runtimeConfig) {
		c.coordAddr = addr
		c.restrict("WithCoordinatorAddr", "", "dist")
	}
}

// WithControlPlaneDir makes the coordinator's control plane durable:
// every control-plane mutation (deploy, start, placement change,
// scale-out/in and recovery stage boundaries, checkpoint-ship metadata)
// is journaled to a synced snapshot file in dir, and shipped
// checkpoints are persisted beside it. A coordinator killed mid-job can
// then be rebuilt from dir — replaying the journal, reattaching the
// still-running workers without restarting them, and rolling back any
// transition caught without a commit record — via
// Job.RestartCoordinator (see CoordinatorFaulter). Journaling is on the
// control path only; the tuple data path is untouched. Distributed
// runtime only.
func WithControlPlaneDir(dir string) Option {
	return func(c *runtimeConfig) {
		c.controlPlaneDir = dir
		c.restrict("WithControlPlaneDir",
			"the in-process runtimes have no coordinator process to lose",
			"dist")
	}
}

// WithStandbyAddr names the address orphaned workers re-dial when their
// coordinator dies (a cold standby, or a supervisor that will restart
// the coordinator elsewhere). Without it, workers with a durable
// control plane redial the dead coordinator's own address — the
// restart-in-place default. Distributed runtime only.
func WithStandbyAddr(addr string) Option {
	return func(c *runtimeConfig) {
		c.standbyAddr = addr
		c.restrict("WithStandbyAddr", "requires WithControlPlaneDir", "dist")
	}
}
