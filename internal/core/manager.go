package core

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"seep/internal/plan"
	"seep/internal/state"
	"seep/internal/stream"
)

// ErrNoCheckpoint reports that replacement planning failed because the
// victim has no backed-up checkpoint. It is the only planning failure
// PlanRecovery may answer with the empty-state fallback.
var ErrNoCheckpoint = errors.New("no checkpoint available")

// Trim is one per-victim trim watermark of a transition: victim Owner's
// final checkpoint reflects everything upstream instance Up sent it
// through TS, so Up's retained output for Owner is trimmed through TS
// BEFORE the buffers are repartitioned. That makes the replay set the
// exact per-victim unprocessed remainder — which a merge depends on, as
// its product's duplicate-detection watermark is the victims' minimum.
type Trim struct {
	Up, Owner plan.InstanceID
	TS        int64
}

// Inherit renames a duplicate-detection watermark downstream: a lone
// replacement of a lone victim re-emits a deterministic prefix of the
// victim's output sequence, so receivers carry the victim's
// acknowledgement position over to it.
type Inherit struct {
	Old, New plan.InstanceID
}

// Transition is the one plan shape for every topology change: N victims
// of one logical operator are superseded by M freshly numbered instances.
// 1→1 is failure recovery, 1→π scale out or parallel recovery (Algorithm
// 3 lines 1-2 plus the Algorithm 2 state partitioning), N→1 the scale-in
// merge of §3.3. Planning mutates the manager (graph, routing, backup
// store); a runtime then executes the plan: reroute (install Routing,
// apply Inherit and Trims, repartition and replay upstream buffers),
// deploy each checkpoint, record.
type Transition struct {
	// Victims are the superseded instances (bottleneck, failed, or merged
	// siblings).
	Victims []plan.InstanceID
	// NewInstances are the replacements.
	NewInstances []plan.InstanceID
	// Checkpoints[i] is the state NewInstances[i] restores, already stored
	// as its initial backup (Algorithm 2 line 8). The victims' retained
	// output rides in the first: as its own buffer in the 1→1 shape, which
	// inherits the victim's identity (Inherit); otherwise as Legacy under
	// the victims' original identities.
	Checkpoints []*state.Checkpoint
	// Routing is the updated routing table for the victims' logical
	// operator, to be installed at every upstream instance.
	Routing *state.Routing
	// Trims are the victims' final acknowledgement positions.
	Trims []Trim
	// Inherit is set for the 1→1 shape only.
	Inherit []Inherit
}

// Merge reports whether the transition is a scale in.
func (t *Transition) Merge() bool { return len(t.Victims) > 1 }

// Manager is the logically centralised query manager of §2.2/§5: it owns
// the execution graph, the routing state of every logical operator, and
// the backup store, and it plans scale-out/recovery/scale-in transitions.
// Runtimes execute the plans (deploy VMs, restore operators, replay).
// Manager is safe for concurrent use.
type Manager struct {
	mu      sync.Mutex
	query   *plan.Query
	graph   *plan.ExecGraph
	backups *BackupStore
	// routing maps each logical operator to the routing state its
	// upstream operators use to reach its partitions. Routing state is
	// "maintained by the query manager" and restored from here after
	// upstream failures (§3.2).
	routing map[plan.OpID]*state.Routing
	// legacyOwner maps every superseded instance to the first of its
	// replacements, which carries its retained output (as its own buffer
	// in the 1→1 shape, as legacy buffers otherwise;
	// state.PartitionCheckpoint).
	legacyOwner map[plan.InstanceID]plan.InstanceID
	// records are the completed transitions, oldest first; merges counts
	// the scale-ins among them.
	records []Record
	merges  uint64
}

// Record documents one completed transition: failure recovery, scale out
// or scale in. Times are milliseconds on the substrate's job clock.
type Record struct {
	// Victim is the replaced instance (the first of the merged siblings
	// for a scale in).
	Victim plan.InstanceID
	// Pi is the number of replacements (1 for a scale in).
	Pi int
	// Failure reports failure recovery, as opposed to scaling.
	Failure bool
	// StartedAt is when the failure happened or the scaling was decided;
	// CompletedAt is when state was restored and replay dispatched.
	StartedAt, CompletedAt int64
	// ReplayedTuples is how many buffered tuples were replayed.
	ReplayedTuples int
	// Merge reports a scale-in transition.
	Merge bool
}

// Duration returns the transition time.
func (r Record) Duration() int64 { return r.CompletedAt - r.StartedAt }

// NewManager builds the manager for a validated query, materialising the
// initial execution graph and full-range routing for every operator with
// a single partition, or an even split for pre-parallelised operators.
func NewManager(q *plan.Query) (*Manager, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	m := &Manager{
		query:       q,
		graph:       plan.NewExecGraph(q),
		backups:     NewBackupStore(),
		routing:     make(map[plan.OpID]*state.Routing),
		legacyOwner: make(map[plan.InstanceID]plan.InstanceID),
	}
	for _, id := range q.Ops() {
		insts := m.graph.Instances(id)
		ranges := state.FullRange.SplitEven(len(insts))
		entries := make([]state.RouteEntry, len(insts))
		for i, inst := range insts {
			entries[i] = state.RouteEntry{Target: inst, Range: ranges[i]}
		}
		r, err := state.NewRoutingFromEntries(entries)
		if err != nil {
			return nil, err
		}
		m.routing[id] = r
	}
	return m, nil
}

// Books is the one snapshot of the manager's books — execution graph,
// routing and legacy chain — that a durable control plane journals and
// a reborn coordinator restores (RestoreBooks). It holds slices in a
// fixed order, so identical books encode identically.
type Books struct {
	// Ops holds one entry per logical operator, in query order.
	Ops []OpBooks
	// Legacy pairs every superseded instance (Old) with the first of its
	// replacements (New), sorted by Old.
	Legacy []Inherit
}

// OpBooks is one logical operator's share of the books.
type OpBooks struct {
	Op plan.OpID
	// Instances are the live instances, by partition number.
	Instances []plan.InstanceID
	// NextPart is the last partition number handed out: a restored graph
	// never reuses one, including numbers retired since the last snapshot.
	NextPart int
	// Routing is the operator's routing table (state.MarshalRouting).
	Routing []byte
}

// Books snapshots the manager's books.
func (m *Manager) Books() Books {
	m.mu.Lock()
	defer m.mu.Unlock()
	var b Books
	for _, op := range m.query.Ops() {
		b.Ops = append(b.Ops, OpBooks{Op: op, Instances: m.graph.Instances(op),
			NextPart: m.graph.NextPart(op), Routing: state.MarshalRouting(m.routing[op])})
	}
	for old, owner := range m.legacyOwner {
		b.Legacy = append(b.Legacy, Inherit{Old: old, New: owner})
	}
	slices.SortFunc(b.Legacy, func(x, y Inherit) int { return x.Old.Compare(y.Old) })
	return b
}

// RestoreBooks replaces the manager's books wholesale with a snapshot
// Books took — the restore half of a durable control plane. The
// partition counters must dominate the live instances' partition
// numbers (see plan.RestoreExecGraph).
func (m *Manager) RestoreBooks(b Books) error {
	instances := make(map[plan.OpID][]plan.InstanceID, len(b.Ops))
	nextPart := make(map[plan.OpID]int, len(b.Ops))
	routing := make(map[plan.OpID]*state.Routing, len(b.Ops))
	for _, ob := range b.Ops {
		r, err := state.DecodeRouting(stream.NewDecoder(ob.Routing))
		if err != nil {
			return fmt.Errorf("core: restore routing of %s: %w", ob.Op, err)
		}
		instances[ob.Op], nextPart[ob.Op], routing[ob.Op] = ob.Instances, ob.NextPart, r
	}
	graph, err := plan.RestoreExecGraph(m.query, instances, nextPart)
	if err != nil {
		return err
	}
	legacy := make(map[plan.InstanceID]plan.InstanceID, len(b.Legacy))
	for _, l := range b.Legacy {
		legacy[l.Old] = l.New
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.graph, m.routing, m.legacyOwner = graph, routing, legacy
	return nil
}

// LegacyOwner resolves the live instance holding the retained output of
// a superseded instance, so acknowledgement trims addressed to the old
// identity still land. The chain is chased — a replacement may itself
// have been merged or replaced — and ends, since every hop leads to a
// later-numbered partition. False when up was never superseded.
func (m *Manager) LegacyOwner(up plan.InstanceID) (plan.InstanceID, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	owner, ok := m.legacyOwner[up]
	for ok && !m.graph.Live(owner) {
		owner, ok = m.legacyOwner[owner]
	}
	return owner, ok
}

// Complete records a transition the runtime finished executing.
func (m *Manager) Complete(tp *Transition, failure bool, startedAt, completedAt int64, replayed int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if tp.Merge() {
		m.merges++
	}
	m.records = append(m.records, Record{
		Victim:         tp.Victims[0],
		Pi:             len(tp.NewInstances),
		Failure:        failure,
		StartedAt:      startedAt,
		CompletedAt:    completedAt,
		ReplayedTuples: replayed,
		Merge:          tp.Merge(),
	})
}

// Records returns the completed transitions, oldest first — including
// those the scaling policy triggered.
func (m *Manager) Records() []Record {
	m.mu.Lock()
	defer m.mu.Unlock()
	return slices.Clone(m.records)
}

// Merges returns how many scale-in transitions have completed.
func (m *Manager) Merges() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.merges
}

// Query returns the logical query graph.
func (m *Manager) Query() *plan.Query { return m.query }

// Backups returns the backup store.
func (m *Manager) Backups() *BackupStore { return m.backups }

// Routing returns the current routing state for reaching op's partitions.
func (m *Manager) Routing(op plan.OpID) *state.Routing {
	m.mu.Lock()
	defer m.mu.Unlock()
	if r := m.routing[op]; r != nil {
		return r.Clone()
	}
	return nil
}

// Instances returns the live instances of op.
func (m *Manager) Instances(op plan.OpID) []plan.InstanceID {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.graph.Instances(op)
}

// Parallelism returns the number of live partitions of op.
func (m *Manager) Parallelism(op plan.OpID) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.graph.Parallelism(op)
}

// Room reports whether op may gain a partition: it is below its maximum
// parallelism, or has none.
func (m *Manager) Room(op plan.OpID) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	spec := m.query.Op(op)
	return spec != nil && (spec.MaxParallelism <= 0 || m.graph.Parallelism(op) < spec.MaxParallelism)
}

// Live reports whether inst is part of the current execution graph.
func (m *Manager) Live(inst plan.InstanceID) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.graph.Live(inst)
}

// UpstreamInstances returns the live instances of all logical upstream
// operators of op, the candidates for backup placement.
func (m *Manager) UpstreamInstances(op plan.OpID) []plan.InstanceID {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []plan.InstanceID
	for _, u := range m.query.Upstream(op) {
		out = append(out, m.graph.Instances(u)...)
	}
	return out
}

// BackupTarget returns the upstream instance that should store o's next
// checkpoint, per Algorithm 1 line 2.
func (m *Manager) BackupTarget(o plan.InstanceID) (plan.InstanceID, error) {
	return ChooseBackup(o, m.UpstreamInstances(o.Op))
}

// PlanReplace plans scale-out-operator(victim, π): π=1 replaces the
// victim in place, π≥2 splits it. Planning fails with ErrNoCheckpoint
// when a stateful victim has no backed-up checkpoint (its backup host
// failed first); the caller must wait for a fresh backup (§4.3).
func (m *Manager) PlanReplace(victim plan.InstanceID, pi int) (*Transition, error) {
	return m.Plan([]plan.InstanceID{victim}, pi, false)
}

// PlanRecovery plans the replacement of a FAILED instance: PlanReplace
// plus the empty-state fallback described at Plan.
func (m *Manager) PlanRecovery(victim plan.InstanceID, pi int) (*Transition, error) {
	return m.Plan([]plan.InstanceID{victim}, pi, true)
}

// Plan plans the transition victims → pi new instances: it retrieves the
// victims' backed-up checkpoints, merges them when there are several,
// partitions the result over pi freshly numbered instances covering the
// victims' united key range, stores the parts as initial backups, and
// computes the updated routing table. The victims leave the execution
// graph.
//
// recovery adds one rule for a failed lone victim: when planning fails
// solely because the victim has no backed-up checkpoint (it failed
// before its first backup — or runs under a baseline mode that never
// checkpoints), the operator restarts from empty state and upstream
// replay rebuilds whatever is reconstructible. A victim that HAS a
// checkpoint never reaches the fallback: planning errors for other
// reasons (max parallelism, stale instance, ...) must not overwrite a
// real backup with empty state.
func (m *Manager) Plan(victims []plan.InstanceID, pi int, recovery bool) (*Transition, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if pi < 1 {
		return nil, fmt.Errorf("core: replace %v with pi=%d", victims, pi)
	}
	spec, union, err := m.admit(victims)
	if err != nil {
		return nil, err
	}
	op := victims[0].Op
	if max := spec.MaxParallelism; max > 0 && m.graph.Parallelism(op)-len(victims)+pi > max {
		return nil, fmt.Errorf("core: scale out of %v to %d exceeds max parallelism %d", victims, pi, max)
	}
	routing := m.routing[op]
	inputs := len(m.query.Upstream(op))
	cps := make([]*state.Checkpoint, len(victims))
	for i, v := range victims {
		cp, _, ok := m.backups.Latest(v)
		if !ok {
			if spec.Role == plan.RoleStateful && !(recovery && len(victims) == 1) {
				return nil, fmt.Errorf("core: %w for %s; retry after next backup", ErrNoCheckpoint, v)
			}
			// Stateless victim, or the recovery fallback: empty state,
			// fresh clocks.
			cp = &state.Checkpoint{Instance: v, Seq: 1, Processing: state.NewProcessing(inputs), Buffer: state.NewBuffer()}
		}
		cps[i] = cp
	}
	ranges := union.SplitEven(pi)
	base := cps[0]
	if len(cps) > 1 {
		if base, err = state.MergeCheckpoints(plan.InstanceID{Op: op}, cps...); err != nil {
			return nil, err
		}
	}
	// Everything that can fail on a well-formed request has been checked;
	// from here on the manager is mutated.
	newInsts, err := m.graph.Replace(op, victims, pi)
	if err != nil {
		return nil, err
	}
	parts, err := state.PartitionCheckpoint(base, newInsts, ranges)
	if err != nil {
		return nil, err
	}
	// Routing: drop every victim entry, add one per new instance.
	var entries []state.RouteEntry
	for _, e := range routing.Entries() {
		if !containsInstance(victims, e.Target) {
			entries = append(entries, e)
		}
	}
	for i, ni := range newInsts {
		entries = append(entries, state.RouteEntry{Target: ni, Range: ranges[i]})
	}
	newRouting, err := state.NewRoutingFromEntries(entries)
	if err != nil {
		return nil, err
	}
	// Algorithm 2 line 8: the partitioned state is stored as the initial
	// backup of each new partition, then the old backups are released.
	for i, p := range parts {
		host, herr := ChooseBackup(newInsts[i], m.upstreamLocked(op))
		if herr != nil {
			return nil, herr
		}
		if serr := m.backups.Store(host, p); serr != nil {
			return nil, serr
		}
	}
	tp := &Transition{Victims: victims, NewInstances: newInsts, Checkpoints: parts, Routing: newRouting.Clone()}
	for i, v := range victims {
		m.backups.Delete(v)
		m.legacyOwner[v] = newInsts[0]
		ups := make([]plan.InstanceID, 0, len(cps[i].Acks))
		for up := range cps[i].Acks {
			ups = append(ups, up)
		}
		state.SortInstanceIDs(ups)
		for _, up := range ups {
			tp.Trims = append(tp.Trims, Trim{Up: up, Owner: v, TS: cps[i].Acks[up]})
		}
	}
	if len(victims) == 1 && pi == 1 {
		tp.Inherit = []Inherit{{Old: victims[0], New: newInsts[0]}}
	}
	m.routing[op] = newRouting
	return tp, nil
}

func (m *Manager) upstreamLocked(op plan.OpID) []plan.InstanceID {
	var out []plan.InstanceID
	for _, u := range m.query.Upstream(op) {
		out = append(out, m.graph.Instances(u)...)
	}
	return out
}

func containsInstance(insts []plan.InstanceID, inst plan.InstanceID) bool {
	for _, i := range insts {
		if i == inst {
			return true
		}
	}
	return false
}

// unionRange returns the key interval the victims own together; several
// victims must own adjacent intervals.
func unionRange(routing *state.Routing, victims []plan.InstanceID) (state.KeyRange, error) {
	var union state.KeyRange
	for i, v := range victims {
		r, ok := routing.RangeOf(v)
		switch {
		case !ok:
			return union, fmt.Errorf("core: %s has no routing entry", v)
		case i == 0:
			union = r
		case union.Hi != stream.MaxKey && r.Lo == union.Hi+1:
			union.Hi = r.Hi
		case r.Hi != stream.MaxKey && union.Lo == r.Hi+1:
			union.Lo = r.Lo
		default:
			return union, fmt.Errorf("core: victims' key ranges are not adjacent: %v and %v", union, r)
		}
	}
	return union, nil
}

// ValidateMerge is the admission check for a scale in, run by every
// runtime BEFORE it stops anything so a bad victim set is rejected with
// zero side effects: at least two distinct live sibling partitions of
// one replaceable operator, owning adjacent key ranges.
func (m *Manager) ValidateMerge(victims []plan.InstanceID) error {
	if len(victims) < 2 {
		return fmt.Errorf("core: merge needs at least two victims, got %d", len(victims))
	}
	return m.validate(victims)
}

// validate is admit under the lock, for a victim set about to retire.
func (m *Manager) validate(victims []plan.InstanceID) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	_, _, err := m.admit(victims)
	return err
}

// admit checks a victim set of any size — distinct live instances of one
// operator that is neither source nor sink, owning one contiguous key
// interval — and returns the operator's spec and that interval. Caller
// holds m.mu.
func (m *Manager) admit(victims []plan.InstanceID) (*plan.OpSpec, state.KeyRange, error) {
	if len(victims) == 0 {
		return nil, state.KeyRange{}, fmt.Errorf("core: no victims")
	}
	op := victims[0].Op
	spec := m.query.Op(op)
	if spec == nil {
		return nil, state.KeyRange{}, fmt.Errorf("core: unknown operator %q", op)
	}
	if spec.Role == plan.RoleSource || spec.Role == plan.RoleSink {
		return nil, state.KeyRange{}, fmt.Errorf("core: cannot replace %v: sources and sinks are assumed reliable (§2.2)", victims)
	}
	for i, v := range victims {
		if v.Op != op {
			return nil, state.KeyRange{}, fmt.Errorf("core: victims across operators %q and %q", op, v.Op)
		}
		if containsInstance(victims[:i], v) {
			return nil, state.KeyRange{}, fmt.Errorf("core: duplicate victim %s", v)
		}
		if !m.graph.Live(v) {
			return nil, state.KeyRange{}, fmt.Errorf("core: instance %s is not live", v)
		}
	}
	union, err := unionRange(m.routing[op], victims)
	return spec, union, err
}

// HandleHostFailure records that a VM hosting inst failed: backups stored
// at that host are dropped (they lived in its memory). Returns the owners
// whose backups were lost.
func (m *Manager) HandleHostFailure(inst plan.InstanceID) []plan.InstanceID {
	return m.backups.DropHost(inst)
}
