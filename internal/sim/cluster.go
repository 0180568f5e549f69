package sim

import (
	"cmp"
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
	// on a capacity-1 VM) to serialise and ship one MB of encoded state
	// (Checkpoint.Size). Default 0.25 × 55/40 = 0.34375: 0.25 was set
	// per MB of an older, larger size figure, which charged the figure
	// workloads' wordcount record 55 bytes for the 40 it encodes to.
	CheckpointCostPerMB float64
	// RestoreCostPerMB is the CPU cost per MB of encoded state to
	// deserialise it on the new VM. Default 0.15 × 55/40 = 0.20625, the
	// same rescale.
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
	// (1 = serial recovery; ≥2 = parallel recovery, §4.2). Default 1. A
	// fallback recovery of a stranded instance always runs at π = 1.
	RecoveryParallelism int
	// Incremental enables incremental checkpoints for managed-state
	// operators (§3.2): between full checkpoints only the dirtied keys
	// are shipped and folded into the backup at the backup host. Only
	// meaningful in FTRSM mode.
	Incremental bool
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
		c.CheckpointCostPerMB = 0.25 * 55 / 40
	}
	if c.RestoreCostPerMB == 0 {
		c.RestoreCostPerMB = 0.15 * 55 / 40
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

// checkpointNode implements backup-state(o) for one node. With
// incremental checkpoints on, stateful nodes ship deltas between full
// ones; the serialisation cost scales with the shipped bytes, so deltas
// also shrink the checkpoint overhead of Fig. 14. A delta the backup
// host cannot apply forces a full checkpoint at the next interval —
// deltas are never load-bearing.
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
	// checkpoint-state runs at the current virtual instant, so the copy is
	// consistent by construction. The sequence chain is optimistic: if an
	// earlier ship was lost, the backup host rejects the delta (sequence
	// gap) and the node owes a full checkpoint.
	cp := n.BeginCheckpoint(n.inst).Checkpoint(c.cfg.Incremental)
	if cp == nil {
		// State encode failure: keep the previous backup rather than
		// shipping partial state.
		finish()
		return
	}
	doneAt := n.vm.Exec(c.cfg.CheckpointCostPerMB*float64(cp.Size())/(1<<20), func() {
		c.sim.After(c.cfg.NetDelayMillis, func() {
			// A checkpoint the backup host cannot take leaves the node
			// owing a full one.
			if c.mgr.Backups().Store(host, cp) != nil {
				n.NeedFull = true
			} else {
				c.trimAcked(n, cp.Acks)
			}
			finish()
		})
	})
	if doneAt < 0 {
		finish()
		return
	}
	c.sim.At(doneAt+c.cfg.NetDelayMillis+1, finish)
}

// trimAcked trims upstream output buffers up to the acknowledged
// timestamps (Algorithm 1 line 4).
func (c *Cluster) trimAcked(n *Node, acks map[plan.InstanceID]int64) {
	for up, ts := range acks {
		c.trim(up, n.inst, ts)
	}
}

// trim trims up's retained output for owner through ts. An upstream a
// transition superseded is trimmed in the legacy buffer its first
// replacement hosts.
func (c *Cluster) trim(up, owner plan.InstanceID, ts int64) {
	if upNode := c.nodes[up]; upNode != nil {
		upNode.Buffer.TrimInstance(owner, ts)
		return
	}
	holder, _ := c.mgr.LegacyOwner(up)
	if hn := c.nodes[holder]; hn != nil {
		if lb := hn.Legacy[up]; lb != nil {
			lb.TrimInstance(owner, ts)
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
// instances (Algorithm 3).
func (c *Cluster) ScaleOut(victim plan.InstanceID, pi int) error {
	return c.begin(core.ScaleOut, []plan.InstanceID{victim}, pi, c.sim.Now())
}

// ScaleIn merges sibling partitions with adjacent key ranges into one
// instance — the merge primitive of §3.3 ("to scale in operators when
// resources are under-utilised, the state of two operators can be
// merged"). A bad victim set is refused with zero side effects.
func (c *Cluster) ScaleIn(victims []plan.InstanceID) error {
	return c.begin(core.ScaleIn, victims, 1, c.sim.Now())
}

// retirable reports whether a transition could retire inst now: it is
// hosted, not failed and not already in a transition.
func (c *Cluster) retirable(inst plan.InstanceID) bool {
	n := c.nodes[inst]
	return n != nil && !n.failed && !n.removed && !c.scalingInProgress[inst]
}

// recover handles a detected failure: recovery is scale out with
// parallelism RecoveryParallelism (§4.2 — "operator recovery becomes a
// special case of scale out").
func (c *Cluster) recover(victim plan.InstanceID, failedAt Millis) {
	if c.scalingInProgress[victim] {
		return
	}
	switch c.cfg.Mode {
	case FTUpstreamBackup, FTSourceReplay:
		c.scalingInProgress[victim] = true
		c.executeReplaceBaseline(victim, failedAt)
	default:
		_ = c.begin(core.Recovery, []plan.InstanceID{victim}, c.cfg.RecoveryParallelism, failedAt)
	}
}

// begin runs one transition's sequence (core.Sequencer) in virtual time.
// A scale refuses a victim that is not retirable.
func (c *Cluster) begin(kind core.Kind, victims []plan.InstanceID, pi int, startedAt Millis) error {
	for _, v := range victims {
		if (kind == core.ScaleOut || kind == core.ScaleIn) && !c.retirable(v) {
			return fmt.Errorf("sim: %s is not live, or is being replaced", v)
		}
	}
	sq, err := core.NewSequencer(c.mgr, c.scaler, kind, victims, pi, startedAt)
	if err != nil {
		return err
	}
	for _, v := range victims {
		c.scalingInProgress[v] = true
	}
	c.exec(sq, sq.Start())
	return nil
}

// exec executes a sequence's actions. A Retire and a Place report once
// their simulated costs have elapsed; a Reroute and the Adopt it
// releases run in one event; the instances a Recover names are
// recovered once Done has released the victims.
func (c *Cluster) exec(sq *core.Sequencer, actions []core.Action) {
	var stranded []plan.InstanceID
	for _, a := range actions {
		switch a.Kind {
		case core.Retire:
			c.retire(sq, a.Insts)
		case core.Place:
			c.place(sq, a.Plan)
		case core.Reroute:
			c.switchOver(sq, a.Plan)
		case core.Checkpoint:
			if n := c.nodes[a.Insts[0]]; n != nil {
				c.checkpointNode(n)
			}
		case core.Recover:
			stranded = a.Insts
		case core.Done:
			for _, v := range sq.Victims() {
				delete(c.scalingInProgress, v)
			}
			if a.Err != nil {
				c.recoveryFailures = append(c.recoveryFailures, a.Err.Error())
			}
			for _, inst := range stranded {
				// A victim retired without checkpoints keeps running
				// (see retire): it is stranded in name only.
				if n := c.nodes[inst]; n == nil || n.removed {
					_ = c.begin(core.Fallback, []plan.InstanceID{inst}, 1, c.sim.Now())
				}
			}
		}
	}
}

// retire is the Retire action. A victim of a merge, or of a scale-out
// under FTRSM, stops first, as on every substrate: deliveries from here
// on drop at it and stay retained upstream, and its capture, taken at
// this event, is final. The plan chains on the backups landing:
// serialisation cost is load-dependent, so a fixed delay could plan
// against a stale checkpoint whose gap the (since-trimmed) upstream
// buffers no longer cover. Without checkpoints there is no capture to
// plan from, so a scale-out victim keeps running, lest a refused
// scale-out lose its state, and the plan follows one network round
// trip.
func (c *Cluster) retire(sq *core.Sequencer, victims []plan.InstanceID) {
	pending := len(victims)
	report := func() {
		if pending--; pending == 0 {
			c.exec(sq, sq.Step(core.Event{Kind: core.Retired}))
		}
	}
	for _, v := range victims {
		if n := c.nodes[v]; sq.Kind() == core.ScaleIn || c.cfg.Mode == FTRSM {
			n.removed = true
			c.checkpointNodeThen(n, report)
		} else {
			c.sim.After(c.cfg.NetDelayMillis+1, report)
		}
	}
}

// place is the Place action, staged in virtual time: VM acquisition,
// then the partition delay (splitting the checkpoint across π > 1
// partitions costs extra coordination at the backup host), then on each
// new VM the restore cost — fixed coordination plus deserialisation
// proportional to the partition's size — and the restore itself; a
// replacement whose restore fails is not placed. The rest register at
// once: the switch-over follows within this event. Routing switches at
// the start: tuples emitted from then on are retained toward, and later
// replayed to, the replacements.
func (c *Cluster) place(sq *core.Sequencer, tp *core.Transition) {
	c.rebuildHops()
	pi := len(tp.NewInstances)
	vms := make([]*VM, 0, pi)
	for range pi {
		c.pool.Acquire(func(vm *VM) {
			if vms = append(vms, vm); len(vms) < pi {
				return
			}
			c.sim.After(Millis(pi-1)*c.cfg.PartitionFixedMillis, func() {
				restored := 0
				for i, cp := range tp.Checkpoints {
					costUnits := c.cfg.RestoreCostPerMB*float64(cp.Size())/(1<<20) +
						float64(c.cfg.CoordFixedMillis)/1000.0
					vms[i].Exec(costUnits, func() {
						if restored++; restored < pi {
							return
						}
						ev := core.Event{Kind: core.Placed}
						for j, part := range tp.Checkpoints {
							var impl operator.Operator
							if f, ok := c.factories[part.Instance.Op]; ok {
								impl = f()
							}
							n := newNode(c, part.Instance, c.mgr.Query().Op(part.Instance.Op), vms[j], impl)
							if err := n.Restore(part); err != nil {
								ev.Err = cmp.Or(ev.Err, err)
								continue
							}
							c.nodes[part.Instance] = n
							ev.Insts = append(ev.Insts, part.Instance)
						}
						c.exec(sq, sq.Step(ev))
					})
				}
			})
		})
	}
}

// switchOver executes a Reroute and the Adopt it releases in one event
// (Algorithm 3 lines 6-14). The victims stop and release their VMs, and
// every upstream instance installs the new routing, renames inherited
// watermarks, applies the trims and repartitions its retained output
// toward the replacements — the node step's state.Instance.Inherit and
// Reroute; one simulator event models the stop/update/restart of the
// upstream operators as an atomic step, and the disruption cost is
// carried by the replay itself. Then each replacement's retained output
// replays downstream under the identity that stamped it
// (state.DownstreamReplay). Until the whole replay has been processed
// the replacements hold live tuples back: replayed tuples carry
// pre-checkpoint timestamps, and a live tuple would advance the
// duplicate watermark past them (the stop-operator step of Algorithm 3
// guarantees this ordering in the paper). Adopted reports then.
func (c *Cluster) switchOver(sq *core.Sequencer, tp *core.Transition) {
	for _, v := range tp.Victims {
		if old := c.nodes[v]; old != nil {
			old.removed = true
			delete(c.nodes, v)
		}
	}
	c.rebuildHops()
	for _, p := range tp.Inherit {
		for _, dn := range c.nodes {
			dn.Inherit(p.Old, p.New)
		}
	}
	for _, tr := range tp.Trims {
		c.trim(tr.Up, tr.Owner, tr.TS)
	}
	tracker := &replayTracker{}
	op := tp.Victims[0].Op
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
	next := sq.Step(core.Event{Kind: core.Rerouted, Replayed: tracker.replayed})
	if len(next) == 0 || next[0].Kind != core.Adopt {
		c.exec(sq, next)
		return
	}
	adopt := next[0]
	rerouted := tracker.replayed
	for _, cp := range tp.Checkpoints {
		if slices.Contains(adopt.Insts, cp.Instance) {
			for r := range state.DownstreamReplay(cp, c.mgr.Routing) {
				c.replay(r, tracker, false)
			}
		}
	}
	held := make([]*Node, len(adopt.Insts))
	for i, inst := range adopt.Insts {
		held[i] = c.nodes[inst]
		held[i].holdingLive = tracker.replayed > 0
	}
	adopted := func() {
		for _, n := range held {
			n.releaseHeld()
		}
		c.exec(sq, sq.Step(core.Event{Kind: core.Adopted, Insts: adopt.Insts, Replayed: tracker.replayed - rerouted, At: c.sim.Now()}))
	}
	if tracker.replayed == 0 {
		adopted()
		return
	}
	tracker.onDone = adopted
}

// executeReplaceBaseline recovers a failed operator under the UB and SR
// baselines: a fresh instance is deployed with empty state and the
// retained window of tuples is re-processed to rebuild it (§6.2). The
// baselines are the one sequence kept outside core.Sequencer: they
// restore no checkpoint, inherit no watermark and time their completion
// by the re-processing backlog, so scripts/lint.sh names
// activateBaseline as its one exemption.
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
		// done (see switchOver). SR re-emits through the
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

// EnablePolicy activates the scaling policy (§5.1): every
// ReportEveryMillis, live instances report their CPU utilisation and one
// control.Scaler round decides which bottlenecks — above the threshold
// for k consecutive reports — split in two and, when scaleIn is set,
// which adjacent pair of idle partitions merges (elastic scale in, the
// paper's stated future work, §8).
func (c *Cluster) EnablePolicy(p control.Policy, scaleIn *control.ScaleInPolicy) {
	c.scaler = control.NewScaler(p, scaleIn)
	view := control.View{Room: c.mgr.Room, Routing: c.mgr.Routing, Live: c.retirable}
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
			_ = c.ScaleOut(victim, 2)
		}
		for _, pair := range merges {
			_ = c.ScaleIn(pair)
		}
		return true
	})
}

// RunUntil advances the simulation to virtual time t.
func (c *Cluster) RunUntil(t Millis) { c.sim.RunUntil(t) }
