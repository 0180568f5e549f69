package sim

import (
	"fmt"
	"slices"

	"seep/internal/control"
	"seep/internal/core"
	"seep/internal/metrics"
	"seep/internal/operator"
	"seep/internal/plan"
	"seep/internal/state"
	"seep/internal/stream"
)

// FTMode selects the fault-tolerance mechanism under evaluation (§6.2).
type FTMode int

const (
	// FTNone disables buffering and checkpointing (baseline for
	// measuring state-management overhead, Fig. 14).
	FTNone FTMode = iota
	// FTRSM is the paper's recovery using state management: periodic
	// checkpoints backed up to upstream VMs plus buffer replay.
	FTRSM
	// FTUpstreamBackup buffers tuples at every operator and re-processes
	// them to rebuild state after a failure (Balazinska et al.).
	FTUpstreamBackup
	// FTSourceReplay buffers tuples only at sources and replays them
	// through the whole pipeline (Storm-style).
	FTSourceReplay
)

// String renders the mode.
func (m FTMode) String() string {
	switch m {
	case FTNone:
		return "none"
	case FTRSM:
		return "r+sm"
	case FTUpstreamBackup:
		return "ub"
	case FTSourceReplay:
		return "sr"
	}
	return fmt.Sprintf("FTMode(%d)", int(m))
}

// Config parameterises a simulated cluster.
type Config struct {
	// Seed drives all pseudo-randomness (deterministic runs).
	Seed int64
	// Mode selects the fault-tolerance mechanism.
	Mode FTMode
	// CheckpointIntervalMillis is c, the checkpointing interval (§3.2).
	// Only used in FTRSM mode. Default 5000.
	CheckpointIntervalMillis Millis
	// WindowMillis bounds how long UB/SR retain tuples: state depends
	// only on the last window, so older tuples are discarded. Default
	// 30000 (the 30 s window of the §6.2 query).
	WindowMillis Millis
	// NetDelayMillis is the one-way network latency between VMs.
	// Default 1.
	NetDelayMillis Millis
	// TimerMillis is the period for TimeDriven operator ticks. Default
	// 1000.
	TimerMillis Millis
	// DetectDelayMillis is the failure-detection delay (heartbeat
	// timeout). Default 500.
	DetectDelayMillis Millis
	// CheckpointCostPerMB is the CPU cost (in cost units, i.e. seconds
	// on a capacity-1 VM) to serialise and ship one MB of state.
	// Default 0.25.
	CheckpointCostPerMB float64
	// RestoreCostPerMB is the CPU cost per MB to deserialise state on
	// the new VM. Default 0.15.
	RestoreCostPerMB float64
	// CoordFixedMillis is the fixed coordination cost per scale-out /
	// recovery beyond VM handoff (state partitioning bookkeeping,
	// operator deployment). Default 300 per new instance.
	CoordFixedMillis Millis
	// PartitionFixedMillis is the extra coordination cost per ADDITIONAL
	// partition when restoring with π > 1 (splitting the checkpoint at
	// the backup host, wiring π streams). It is why parallel recovery
	// loses at short checkpointing intervals (Fig. 13). Default 800.
	PartitionFixedMillis Millis
	// Pool configures the pre-allocated VM pool (§5.2).
	Pool PoolConfig
	// VMCapacity is the CPU capacity of statically deployed VMs.
	// Default 1.0.
	VMCapacity float64
	// RecoveryParallelism is π used when recovering failed operators
	// (1 = serial recovery; ≥2 = parallel recovery, §4.2). Default 1.
	RecoveryParallelism int
	// Delta enables incremental checkpoints for managed-state operators
	// (§3.2): between full checkpoints only the dirtied keys are shipped
	// and folded into the backup at the backup host. Zero value
	// disables. Only meaningful in FTRSM mode.
	Delta state.DeltaPolicy
}

func (c Config) withDefaults() Config {
	if c.CheckpointIntervalMillis == 0 {
		c.CheckpointIntervalMillis = 5_000
	}
	if c.WindowMillis == 0 {
		c.WindowMillis = 30_000
	}
	if c.NetDelayMillis == 0 {
		c.NetDelayMillis = 1
	}
	if c.TimerMillis == 0 {
		c.TimerMillis = 1_000
	}
	if c.DetectDelayMillis == 0 {
		c.DetectDelayMillis = 500
	}
	if c.CheckpointCostPerMB == 0 {
		c.CheckpointCostPerMB = 0.25
	}
	if c.RestoreCostPerMB == 0 {
		c.RestoreCostPerMB = 0.15
	}
	if c.CoordFixedMillis == 0 {
		c.CoordFixedMillis = 300
	}
	if c.PartitionFixedMillis == 0 {
		c.PartitionFixedMillis = 800
	}
	if c.VMCapacity == 0 {
		c.VMCapacity = 1.0
	}
	if c.RecoveryParallelism == 0 {
		c.RecoveryParallelism = 1
	}
	if c.Pool.Capacity == 0 {
		c.Pool.Capacity = c.VMCapacity
	}
	if c.Pool.Size == 0 {
		c.Pool.Size = 2
	}
	return c
}

// RateFunc gives a source's emission rate in tuples/second at virtual
// time t.
type RateFunc func(t Millis) float64

// ConstantRate returns a fixed-rate profile.
func ConstantRate(tps float64) RateFunc { return func(Millis) float64 { return tps } }

// Generator produces the payload and key for the i-th tuple of a source.
type Generator func(i uint64) (stream.Key, any)

// source drives tuple injection for one source instance.
type source struct {
	node    *Node
	rate    RateFunc
	gen     Generator
	emitted uint64
	paused  bool
	// carry accumulates fractional tuples between ticks.
	carry float64
}

// Cluster simulates a cloud deployment of one query: VMs host operator
// instances, a query manager plans transitions, a VM pool masks
// provisioning, and the integrated fault-tolerant scale-out algorithm
// (Algorithm 3) handles both bottlenecks and failures.
type Cluster struct {
	sim       *Sim
	cfg       Config
	mgr       *core.Manager
	pool      *Pool
	factories map[plan.OpID]operator.Factory
	nodes     map[plan.InstanceID]*Node
	sources   map[plan.InstanceID]*source
	nextVMID  int

	// scalingInProgress guards against double-triggering on one victim.
	scalingInProgress map[plan.InstanceID]bool

	// scaler is the scaling policy (nil unless EnablePolicy ran).
	scaler *control.Scaler

	// Measurements.
	Latency           *metrics.Histogram
	SinkCount         metrics.Counter
	duplicatesDropped metrics.Counter
	VMsInUse          *metrics.TimeSeries
	ThroughputTS      *metrics.TimeSeries
	recoveryFailures  []string
	// OnSink, when set, observes every tuple arriving at a sink.
	OnSink func(t stream.Tuple)

	// sinkSinceLast counts sink arrivals for throughput sampling.
	sinkSinceLast uint64
}

// NewCluster deploys a query onto a simulated cluster. factories supplies
// the operator implementation for every non-source, non-sink logical
// operator.
func NewCluster(cfg Config, q *plan.Query, factories map[plan.OpID]operator.Factory) (*Cluster, error) {
	cfg = cfg.withDefaults()
	mgr, err := core.NewManager(q)
	if err != nil {
		return nil, err
	}
	s := New(cfg.Seed)
	c := &Cluster{
		sim:               s,
		cfg:               cfg,
		mgr:               mgr,
		pool:              NewPool(s, cfg.Pool),
		factories:         factories,
		nodes:             make(map[plan.InstanceID]*Node),
		sources:           make(map[plan.InstanceID]*source),
		scalingInProgress: make(map[plan.InstanceID]bool),
		Latency:           &metrics.Histogram{},
		VMsInUse:          &metrics.TimeSeries{},
		ThroughputTS:      &metrics.TimeSeries{},
	}
	for _, opID := range q.Ops() {
		spec := q.Op(opID)
		for _, inst := range mgr.Instances(opID) {
			var op operator.Operator
			if spec.Role != plan.RoleSource && spec.Role != plan.RoleSink {
				f, ok := factories[opID]
				if !ok {
					return nil, fmt.Errorf("sim: no factory for operator %q", opID)
				}
				op = f()
			}
			c.nextVMID++
			vm := NewVM(s, 1000+c.nextVMID, cfg.VMCapacity)
			c.nodes[inst] = newNode(c, inst, spec, vm, op)
		}
	}
	c.rebuildHops()
	// Periodic machinery.
	s.Every(cfg.TimerMillis, func() bool {
		c.tickTimers()
		return true
	})
	if cfg.Mode == FTRSM {
		s.Every(cfg.CheckpointIntervalMillis, func() bool {
			c.checkpointAll()
			return true
		})
	}
	if cfg.Mode == FTUpstreamBackup || cfg.Mode == FTSourceReplay {
		s.Every(1_000, func() bool {
			cutoff := s.Now() - cfg.WindowMillis
			for _, n := range c.nodes {
				n.Buffer.TrimBornBefore(cutoff)
			}
			return true
		})
	}
	s.Every(1_000, func() bool {
		c.VMsInUse.Add(s.Now(), float64(c.liveVMs()))
		c.ThroughputTS.Add(s.Now(), float64(c.sinkSinceLast))
		c.sinkSinceLast = 0
		return true
	})
	return c, nil
}

// Sim returns the simulation kernel (for scheduling experiment events).
func (c *Cluster) Sim() *Sim { return c.sim }

// Manager returns the query manager.
func (c *Cluster) Manager() *core.Manager { return c.mgr }

// Node returns the live node for an instance (nil if none).
func (c *Cluster) Node(inst plan.InstanceID) *Node { return c.nodes[inst] }

// OperatorOf returns the operator hosted by inst so experiments can
// inspect or pre-populate its state (nil if the instance is unknown or a
// source/sink).
func (c *Cluster) OperatorOf(inst plan.InstanceID) operator.Operator {
	if n := c.nodes[inst]; n != nil {
		return n.op
	}
	return nil
}

// LiveInstances returns the instances of op that currently have an
// active node. During an in-flight scale out the execution graph may
// list replacement instances whose VMs are still being provisioned;
// those are excluded here.
func (c *Cluster) LiveInstances(op plan.OpID) []plan.InstanceID {
	var out []plan.InstanceID
	for _, inst := range c.mgr.Instances(op) {
		if n := c.nodes[inst]; n != nil && !n.failed && !n.removed {
			out = append(out, inst)
		}
	}
	return out
}

// DuplicatesDropped returns how many replayed duplicates were discarded.
func (c *Cluster) DuplicatesDropped() uint64 { return c.duplicatesDropped.Value() }

// RecoveryFailures returns descriptions of failure recoveries that
// could not complete (e.g. planning errors), oldest first.
func (c *Cluster) RecoveryFailures() []string {
	out := make([]string, len(c.recoveryFailures))
	copy(out, c.recoveryFailures)
	return out
}

func (c *Cluster) liveVMs() int {
	n := 0
	for _, node := range c.nodes {
		if !node.failed && !node.removed {
			n++
		}
	}
	return n
}

// AddSource attaches a tuple generator to a source instance.
func (c *Cluster) AddSource(inst plan.InstanceID, rate RateFunc, gen Generator) error {
	n := c.nodes[inst]
	if n == nil || n.spec.Role != plan.RoleSource {
		return fmt.Errorf("sim: %s is not a live source", inst)
	}
	src := &source{node: n, rate: rate, gen: gen}
	c.sources[inst] = src
	c.scheduleSourceTick(src)
	return nil
}

// InjectBatch emits count tuples from a source instance at the current
// virtual time — the simulator counterpart of the live engine's batch
// injection, for scenarios that need exact tuple counts rather than
// rates. The tuples are processed as the simulation advances (RunUntil).
func (c *Cluster) InjectBatch(inst plan.InstanceID, count int, gen Generator) error {
	n := c.nodes[inst]
	if n == nil || n.spec.Role != plan.RoleSource {
		return fmt.Errorf("sim: %s is not a live source", inst)
	}
	for i := 0; i < count; i++ {
		key, payload := gen(uint64(i))
		n.curBorn = c.sim.Now()
		n.emit(key, payload)
	}
	return nil
}

// scheduleSourceTick emits tuples in 10 ms batches according to the rate
// profile; fractional tuples carry over so long-run rates are exact.
func (c *Cluster) scheduleSourceTick(src *source) {
	const tick = 10 // ms
	var fire func()
	fire = func() {
		if src.node.removed {
			return
		}
		if !src.paused {
			r := src.rate(c.sim.Now())
			src.carry += r * tick / 1000.0
			n := int(src.carry)
			src.carry -= float64(n)
			for i := 0; i < n; i++ {
				key, payload := src.gen(src.emitted)
				src.emitted++
				src.node.curBorn = c.sim.Now()
				src.node.emit(key, payload)
			}
		}
		c.sim.After(tick, fire)
	}
	c.sim.After(tick, fire)
}

// rebuildHops resolves every node's downstream fan-out against the
// manager's routing. Whether a node retains its output for replay is
// fixed by the FT mode: R+SM and UB retain at every operator, SR at the
// sources only. It runs whenever a plan switches a routing and after new
// nodes restore (a restore replaces the buffer the hops append to).
func (c *Cluster) rebuildHops() {
	q := c.mgr.Query()
	for _, n := range c.nodes {
		retain := c.cfg.Mode == FTRSM || c.cfg.Mode == FTUpstreamBackup ||
			c.cfg.Mode == FTSourceReplay && n.spec.Role == plan.RoleSource
		n.hops = n.Hops(q, n.inst.Op, retain, c.mgr.Routing)
	}
}

// deliver schedules the arrival of a batch at its target after the
// network delay. Deliveries to unknown (failed/stale) instances are
// dropped; the tuples survive in upstream buffer state and are replayed
// after recovery.
func (c *Cluster) deliver(d delivery) {
	c.sim.After(c.cfg.NetDelayMillis, func() {
		if n := c.nodes[d.To]; n != nil {
			n.receive(d)
		} else {
			d.done()
		}
	})
}

// replay delivers one replayed tuple under the identity that stamped it,
// counted by tracker; force bypasses duplicate detection (source replay).
func (c *Cluster) replay(r state.Replay, tracker *replayTracker, force bool) {
	tracker.outstanding++
	tracker.replayed++
	input := c.mgr.Query().InputIndex(r.From.Op, r.To.Op)
	b := state.Batch{From: r.From, To: r.To, Input: input, Tuples: append(state.BatchTuples(1), r.T)}
	c.deliver(delivery{Batch: b, tracker: tracker, force: force})
}

// observeSink records a tuple arriving at a sink node.
func (c *Cluster) observeSink(n *Node, t stream.Tuple) {
	lat := c.sim.Now() - t.Born
	if lat < 0 {
		lat = 0
	}
	c.Latency.Observe(lat)
	c.SinkCount.Inc()
	c.sinkSinceLast++
	if c.OnSink != nil {
		c.OnSink(t)
	}
}

// tickTimers drives TimeDriven operators.
func (c *Cluster) tickTimers() {
	for _, inst := range c.sortedInstances() {
		if n := c.nodes[inst]; n != nil {
			n.onTime()
		}
	}
}

func (c *Cluster) sortedInstances() []plan.InstanceID {
	out := make([]plan.InstanceID, 0, len(c.nodes))
	for inst := range c.nodes {
		out = append(out, inst)
	}
	slices.SortFunc(out, plan.InstanceID.Compare)
	return out
}

// checkpointAll takes a checkpoint of every non-source, non-sink node and
// backs it up to its upstream backup host (Algorithm 1). The snapshot is
// consistent (taken in one event); the serialisation cost occupies the
// node's VM, delaying queued tuples — the measurable overhead of Fig. 14.
func (c *Cluster) checkpointAll() {
	for _, inst := range c.sortedInstances() {
		n := c.nodes[inst]
		if n == nil || n.failed || n.removed {
			continue
		}
		if n.spec.Role == plan.RoleSource || n.spec.Role == plan.RoleSink {
			continue
		}
		c.checkpointNode(n)
	}
}

// checkpointNode implements backup-state(o) for one node. Under an
// active DeltaPolicy, stateful nodes ship incremental checkpoints
// between full ones; the serialisation cost scales with the shipped
// bytes, so deltas also shrink the checkpoint overhead of Fig. 14. A
// delta the backup host cannot apply forces a full checkpoint at the
// next interval — deltas are never load-bearing.
func (c *Cluster) checkpointNode(n *Node) { c.checkpointNodeThen(n, nil) }

// checkpointNodeThen is checkpointNode with a completion callback,
// invoked exactly once when the backup attempt finished (stored,
// folded, or given up). Transitions that partition "the most recent
// checkpoint" (§4.3) chain on it instead of guessing how long
// serialisation and shipping take — the VM-cost model makes that delay
// load-dependent. A VM that dies mid-checkpoint drops its Exec
// callback, so a watchdog at the computed completion time guarantees
// the callback still fires (the chained transition then proceeds with
// whatever backup exists, as a fixed delay would have).
func (c *Cluster) checkpointNodeThen(n *Node, done func()) {
	fired := false
	finish := func() {
		if fired {
			return
		}
		fired = true
		if done != nil {
			done()
		}
	}
	host, err := c.mgr.BackupTarget(n.inst)
	if err != nil {
		finish()
		return
	}
	ship := func(costUnits float64, store func()) {
		doneAt := n.vm.Exec(costUnits, func() {
			c.sim.After(c.cfg.NetDelayMillis, func() {
				store()
				finish()
			})
		})
		if doneAt < 0 {
			finish()
			return
		}
		c.sim.At(doneAt+c.cfg.NetDelayMillis+1, finish)
	}
	// A checkpoint the backup host cannot take leaves the node owing a
	// full one.
	stored := func(err error, acks map[plan.InstanceID]int64) {
		if err != nil {
			n.NeedFull = true
			return
		}
		c.trimAcked(n, acks)
	}
	// checkpoint-state runs at the current virtual instant, so the copy is
	// consistent by construction. The sequence chain is optimistic: if an
	// earlier ship was lost, the backup host rejects the delta (sequence
	// gap) and the node owes a full checkpoint.
	switch cp, dc := n.BeginCheckpoint(n.inst).Checkpoint(c.cfg.Delta); {
	case dc != nil:
		ship(c.cfg.CheckpointCostPerMB*float64(dc.Size())/(1<<20), func() {
			stored(c.mgr.Backups().ApplyDelta(host, dc), dc.Acks)
		})
	case cp != nil:
		ship(c.cfg.CheckpointCostPerMB*float64(cp.Size())/(1<<20), func() {
			stored(c.mgr.Backups().Store(host, cp), cp.Acks)
		})
	default:
		// State encode failure: keep the previous backup rather than
		// shipping partial state.
		finish()
	}
}

// trimAcked trims upstream output buffers up to the acknowledged
// timestamps (Algorithm 1 line 4). Acknowledgements addressed to a
// retired merge victim trim the legacy buffer its merge product hosts.
func (c *Cluster) trimAcked(n *Node, acks map[plan.InstanceID]int64) {
	for up, ts := range acks {
		if upNode := c.nodes[up]; upNode != nil {
			upNode.Buffer.TrimInstance(n.inst, ts)
			continue
		}
		owner, _ := c.mgr.LegacyOwner(up)
		if hn := c.nodes[owner]; hn != nil {
			if lb := hn.Legacy[up]; lb != nil {
				lb.TrimInstance(n.inst, ts)
			}
		}
	}
}

// FailInstance crash-stops the VM hosting inst at the current virtual
// time. Backups stored on that VM are lost. Detection and recovery
// follow after the configured detection delay.
func (c *Cluster) FailInstance(inst plan.InstanceID) error {
	n := c.nodes[inst]
	if n == nil || n.failed {
		return fmt.Errorf("sim: %s is not a live instance", inst)
	}
	if n.spec.Role == plan.RoleSource || n.spec.Role == plan.RoleSink {
		return fmt.Errorf("sim: sources and sinks are assumed reliable (§2.2)")
	}
	n.failed = true
	n.vm.Fail()
	c.mgr.HandleHostFailure(inst)
	failedAt := c.sim.Now()
	c.sim.After(c.cfg.DetectDelayMillis, func() {
		c.recover(inst, failedAt)
	})
	return nil
}

// ScaleOut replaces a live bottleneck instance with pi partitioned
// instances (Algorithm 3). The victim keeps processing until the new
// instances are restored; its post-checkpoint work is reconstructed at
// the replacements by replaying upstream buffers.
func (c *Cluster) ScaleOut(victim plan.InstanceID, pi int) error {
	n := c.nodes[victim]
	if n == nil || n.failed || n.removed {
		return fmt.Errorf("sim: %s is not live", victim)
	}
	if c.scalingInProgress[victim] {
		return fmt.Errorf("sim: scale out of %s already in progress", victim)
	}
	c.scalingInProgress[victim] = true
	started := c.sim.Now()
	// In RSM mode, refresh the checkpoint right before partitioning so
	// the replayed window is small. (The paper partitions the most
	// recent checkpoint, §4.3.) Planning chains on the backup landing:
	// serialisation cost is load-dependent, so a fixed delay could plan
	// against a stale checkpoint whose gap the (since-trimmed) upstream
	// buffers no longer cover.
	if c.cfg.Mode == FTRSM {
		c.checkpointNodeThen(n, func() {
			c.executeReplace([]plan.InstanceID{victim}, pi, started, false)
		})
		return nil
	}
	c.sim.After(c.cfg.NetDelayMillis+1, func() {
		c.executeReplace([]plan.InstanceID{victim}, pi, started, false)
	})
	return nil
}

// recover handles a detected failure: recovery is scale out with
// parallelism RecoveryParallelism (§4.2 — "operator recovery becomes a
// special case of scale out").
func (c *Cluster) recover(victim plan.InstanceID, failedAt Millis) {
	if c.scalingInProgress[victim] {
		return
	}
	c.scalingInProgress[victim] = true
	switch c.cfg.Mode {
	case FTUpstreamBackup, FTSourceReplay:
		c.executeReplaceBaseline(victim, failedAt)
	default:
		c.executeReplace([]plan.InstanceID{victim}, c.cfg.RecoveryParallelism, failedAt, true)
	}
}

// executeReplace plans one transition (core.Manager.Plan — scale out,
// R+SM recovery and scale in are one shape) and stages its execution in
// virtual time: VM acquisition, checkpoint partitioning, state restore,
// then the atomic switch-over.
func (c *Cluster) executeReplace(victims []plan.InstanceID, pi int, startedAt Millis, failure bool) {
	tp, err := c.mgr.Plan(victims, pi, failure)
	if err != nil {
		for _, v := range victims {
			delete(c.scalingInProgress, v)
		}
		switch {
		case len(victims) > 1:
			// Merge victims are already stopped: recover each from its
			// final checkpoint through the normal path, exactly as after
			// a crash.
			c.recoveryFailures = append(c.recoveryFailures, fmt.Sprintf("merge %v: %v", victims, err))
			for _, v := range victims {
				c.recover(v, c.sim.Now())
			}
		case failure:
			// A recovery that cannot be planned is recorded, and the victim
			// is unblocked so a later detection can retry.
			c.recoveryFailures = append(c.recoveryFailures,
				fmt.Sprintf("recover %s (pi=%d): %v", victims[0], pi, err))
		default:
			// Scale out aborts cleanly; the victim continues processing
			// unaffected (§4.3) and may be re-triggered later.
			c.scaler.Unmute(victims[0])
		}
		return
	}
	// Routing switches now: tuples emitted from here on are buffered
	// toward (and later replayed to) the new instances.
	c.rebuildHops()

	vms := make([]*VM, 0, pi)
	for i := 0; i < pi; i++ {
		c.pool.Acquire(func(vm *VM) {
			vms = append(vms, vm)
			if len(vms) == pi {
				c.finishReplace(tp, vms, startedAt, failure)
			}
		})
	}
}

// finishReplace restores state on the new VMs and replays buffers.
func (c *Cluster) finishReplace(tp *core.Transition, vms []*VM, startedAt Millis, failure bool) {
	pi := len(tp.NewInstances)
	// Splitting the checkpoint across π > 1 partitions costs extra
	// coordination at the backup host before the restores can begin.
	partitionDelay := Millis(pi-1) * c.cfg.PartitionFixedMillis
	c.sim.After(partitionDelay, func() {
		// Restore cost per instance: fixed coordination plus
		// deserialisation proportional to the partition size, paid on
		// the new VM.
		restored := 0
		for i, cp := range tp.Checkpoints {
			costUnits := c.cfg.RestoreCostPerMB*float64(cp.Size())/(1<<20) +
				float64(c.cfg.CoordFixedMillis)/1000.0
			vms[i].Exec(costUnits, func() {
				restored++
				if restored == pi {
					c.activateReplacements(tp, vms, startedAt, failure)
				}
			})
		}
	})
}

// activateReplacements is the atomic switch-over: register nodes, stop
// the victims, fix downstream acknowledgement inheritance, replay the
// victims' retained output downstream and the upstream buffers to the
// new instances (Algorithm 3 lines 6-14; the exactly-once rules are
// stated once, in engine/transition.go). Inheritance and the upstream
// reroute are the node step's (state.Instance.Inherit/Reroute), the
// replay sets the shared enumerations of state/replay.go.
func (c *Cluster) activateReplacements(tp *core.Transition, vms []*VM, startedAt Millis, failure bool) {
	op := tp.Victims[0].Op
	spec := c.mgr.Query().Op(op)

	// Stop the victims and release their VMs (Algorithm 3 line 8). On
	// failure recovery the victim is already dead.
	for _, v := range tp.Victims {
		if old := c.nodes[v]; old != nil {
			old.removed = true
			delete(c.nodes, v)
		}
		delete(c.scalingInProgress, v)
	}
	c.scaler.Forget(tp.Victims)

	newNodes := make([]*Node, len(tp.NewInstances))
	for i, inst := range tp.NewInstances {
		var impl operator.Operator
		if f, ok := c.factories[op]; ok {
			impl = f()
		}
		n := newNode(c, inst, spec, vms[i], impl)
		if err := n.Restore(tp.Checkpoints[i]); err != nil {
			c.recoveryFailures = append(c.recoveryFailures, err.Error())
		}
		c.nodes[inst] = n
		newNodes[i] = n
	}
	c.rebuildHops()

	// Downstream duplicate detection: a lone replacement of a lone
	// victim inherits its acknowledgement position. With pi > 1 each
	// partition's output sequence is fresh (the paper's per-stream
	// clocks), so downstream starts clean and duplicate suppression is
	// best-effort for the checkpoint-lag window.
	for _, p := range tp.Inherit {
		for _, dn := range c.nodes {
			dn.Inherit(p.Old, p.New)
		}
	}

	tracker := &replayTracker{}
	for _, cp := range tp.Checkpoints {
		for r := range state.DownstreamReplay(cp, c.mgr.Routing) {
			c.replay(r, tracker, false)
		}
	}
	// Upstream side (lines 9-14). The switch happens within one simulator
	// event, which models the stop/update/restart of upstream operators
	// as an atomic step; the disruption cost is carried by the replay
	// itself.
	for _, upOp := range c.mgr.Query().Upstream(op) {
		for _, upInst := range c.mgr.Instances(upOp) {
			un := c.nodes[upInst]
			if un == nil {
				continue
			}
			for r := range un.Reroute(upInst, op, tp.Routing, tp.NewInstances) {
				c.replay(r, tracker, false)
			}
		}
	}

	if tracker.replayed == 0 {
		c.mgr.Complete(tp, failure, startedAt, c.sim.Now(), 0)
		return
	}
	// Until the replay completes, the replacements must not process live
	// tuples: replayed tuples carry pre-checkpoint timestamps and a live
	// tuple would advance the duplicate watermark past them (the
	// stop-operator step of Algorithm 3 guarantees this ordering in the
	// paper).
	for _, n := range newNodes {
		n.holdingLive = true
	}
	tracker.onDone = func() {
		c.mgr.Complete(tp, failure, startedAt, c.sim.Now(), tracker.replayed)
		for _, n := range newNodes {
			n.releaseHeld()
		}
	}
}

// executeReplaceBaseline recovers a failed operator under the UB and SR
// baselines: a fresh instance is deployed with empty state and the
// retained window of tuples is re-processed to rebuild it (§6.2).
func (c *Cluster) executeReplaceBaseline(victim plan.InstanceID, failedAt Millis) {
	// The baselines keep no state checkpoints, so planning always takes
	// PlanRecovery's empty-checkpoint path: the replacement starts empty
	// and re-processes the retained tuple window to rebuild state.
	q := c.mgr.Query()
	rp, err := c.mgr.PlanRecovery(victim, 1)
	if err != nil {
		c.recoveryFailures = append(c.recoveryFailures,
			fmt.Sprintf("recover %s (pi=1): %v", victim, err))
		delete(c.scalingInProgress, victim)
		return
	}
	c.rebuildHops()

	if c.cfg.Mode == FTSourceReplay {
		// The source stops generating new tuples during recovery (§6.2).
		for _, s := range c.sources {
			s.paused = true
		}
	}

	c.pool.Acquire(func(vm *VM) {
		spec := q.Op(victim.Op)
		coord := float64(c.cfg.CoordFixedMillis) / 1000.0
		vm.Exec(coord, func() {
			c.activateBaseline(rp, vm, victim, failedAt, spec)
		})
	})
}

func (c *Cluster) activateBaseline(rp *core.Transition, vm *VM, victim plan.InstanceID, failedAt Millis, spec *plan.OpSpec) {
	if old := c.nodes[victim]; old != nil {
		old.removed = true
		delete(c.nodes, victim)
	}
	delete(c.scalingInProgress, victim)
	newInst := rp.NewInstances[0]
	var op operator.Operator
	if f, ok := c.factories[newInst.Op]; ok {
		op = f()
	}
	n := newNode(c, newInst, spec, vm, op)
	c.nodes[newInst] = n
	c.rebuildHops()

	tracker := &replayTracker{}
	newNodes := []*Node{n}

	if c.cfg.Mode == FTUpstreamBackup {
		// Replay the immediate upstream buffers (whole retained window).
		for _, upOp := range c.mgr.Query().Upstream(victim.Op) {
			for _, upInst := range c.mgr.Instances(upOp) {
				un := c.nodes[upInst]
				if un == nil {
					continue
				}
				for r := range un.Reroute(upInst, victim.Op, rp.Routing, rp.NewInstances) {
					c.replay(r, tracker, false)
				}
			}
		}
	} else {
		// Source replay: re-inject the sources' retained windows through
		// the whole pipeline; intermediate operators re-process them.
		for _, s := range c.sources {
			sn := s.node
			for _, target := range sn.Buffer.Targets() {
				r := c.mgr.Routing(target.Op)
				for _, t := range sn.Buffer.Tuples(target) {
					to := target
					if r != nil {
						to = r.Lookup(t.Key)
					}
					c.replay(state.Replay{From: sn.inst, To: to, T: t}, tracker, true)
				}
			}
		}
	}

	if c.cfg.Mode == FTUpstreamBackup && tracker.replayed > 0 {
		// UB replays old-timestamped tuples from the immediate upstream
		// buffers; hold live tuples until the window re-processing is
		// done (see activateReplacements). SR re-emits through the
		// pipeline with fresh timestamps, so it needs no hold.
		n.holdingLive = true
	}
	finish := func() {
		// The recovered operator may still be draining re-processed
		// tuples produced by intermediate operators; account for its
		// remaining queue.
		done := c.sim.Now()
		for _, nn := range newNodes {
			if until := nn.vm.busyUntil; until > done {
				done = until
			}
		}
		c.mgr.Complete(rp, true, failedAt, done, tracker.replayed)
		n.releaseHeld()
		if c.cfg.Mode == FTSourceReplay {
			c.sim.At(done, func() {
				for _, s := range c.sources {
					s.paused = false
				}
			})
		}
	}
	if tracker.replayed == 0 {
		finish()
		return
	}
	tracker.onDone = finish
}

// ScaleIn merges sibling partitions with adjacent key ranges into one
// instance — the merge primitive of §3.3 ("to scale in operators when
// resources are under-utilised, the state of two operators can be
// merged"). The victims STOP first, within this event, and their final
// checkpoints are taken from the stopped state — so the captures reflect
// everything they ever processed, tuples in flight drop and stay
// retained upstream for replay, and the merge has no post-checkpoint
// window. Once every capture has landed the transition is planned and
// staged like any other.
func (c *Cluster) ScaleIn(victims []plan.InstanceID) error {
	// Full validation BEFORE any victim stops, so Job.ScaleIn rejects bad
	// victim sets with zero side effects on every substrate.
	if err := c.mgr.ValidateMerge(victims); err != nil {
		return err
	}
	for _, v := range victims {
		if n := c.nodes[v]; n == nil || n.failed || n.removed {
			return fmt.Errorf("sim: %s is not live", v)
		}
		if c.scalingInProgress[v] {
			return fmt.Errorf("sim: %s is being replaced", v)
		}
	}
	started := c.sim.Now()
	pending := len(victims)
	for _, v := range victims {
		c.scalingInProgress[v] = true
		n := c.nodes[v]
		// Stop first: deliveries from here on drop at the victim and
		// stay retained upstream; the snapshot inside checkpointNodeThen
		// is taken synchronously at this event, so it is final.
		n.removed = true
		c.checkpointNodeThen(n, func() {
			if pending--; pending == 0 {
				c.executeReplace(victims, 1, started, false)
			}
		})
	}
	return nil
}

// EnablePolicy activates the scaling policy (§5.1): every
// ReportEveryMillis, live instances report their CPU utilisation and one
// control.Scaler round decides which bottlenecks — above the threshold
// for k consecutive reports — split in two and, when scaleIn is set,
// which adjacent pair of idle partitions merges (elastic scale in, the
// paper's stated future work, §8).
func (c *Cluster) EnablePolicy(p control.Policy, scaleIn *control.ScaleInPolicy) {
	c.scaler = control.NewScaler(p, scaleIn)
	view := control.View{
		Room:    c.mgr.Room,
		Routing: c.mgr.Routing,
		Live: func(inst plan.InstanceID) bool {
			n := c.nodes[inst]
			return n != nil && !n.failed && !n.removed && !c.scalingInProgress[inst]
		},
	}
	c.sim.Every(p.ReportEveryMillis, func() bool {
		var reports []control.Report
		for _, inst := range c.sortedInstances() {
			n := c.nodes[inst]
			if n == nil || n.failed || n.removed {
				continue
			}
			if n.spec.Role == plan.RoleSource || n.spec.Role == plan.RoleSink {
				continue
			}
			reports = append(reports, control.Report{Inst: inst, Util: n.vm.Utilization()})
			n.vm.ResetWindow()
		}
		splits, merges := c.scaler.Round(reports, view)
		for _, victim := range splits {
			if err := c.ScaleOut(victim, 2); err != nil {
				c.scaler.Unmute(victim)
			}
		}
		for _, pair := range merges {
			_ = c.ScaleIn(pair)
		}
		return true
	})
}

// RunUntil advances the simulation to virtual time t.
func (c *Cluster) RunUntil(t Millis) { c.sim.RunUntil(t) }
