// Package plan models queries as directed acyclic graphs of operators and
// their physical realisation as execution graphs of partitioned operator
// instances (§2.2 of the paper).
//
// A Query is the logical graph q = (O, S): vertices are logical operators,
// edges are streams. An ExecGraph is the physical graph q̄: each logical
// operator o maps to π(o) partitioned instances o^1..o^π, and each logical
// stream maps to the product of the endpoint partitions.
package plan

import (
	"cmp"
	"errors"
	"fmt"
	"sort"
)

// OpID names a logical operator in a query graph, e.g. "toll-calculator".
type OpID string

// Special well-known operator roles.
const (
	// RoleSource marks operators that inject tuples and cannot fail (§2.2).
	RoleSource = "source"
	// RoleSink marks operators that gather results and cannot fail.
	RoleSink = "sink"
	// RoleStateless marks operators with θo = ∅.
	RoleStateless = "stateless"
	// RoleStateful marks operators with externally managed state.
	RoleStateful = "stateful"
)

// InstanceID identifies one partitioned instance of a logical operator in
// the execution graph, e.g. toll-calculator#2. Partition numbers start at
// 1 and are never reused within one execution graph generation, so stale
// messages addressed to replaced instances are detectable.
type InstanceID struct {
	Op   OpID
	Part int
}

// String renders the instance as op#part.
func (id InstanceID) String() string { return fmt.Sprintf("%s#%d", id.Op, id.Part) }

// Compare orders instances by operator, then partition number — the one
// instance order of the code base (for slices.SortFunc).
func (id InstanceID) Compare(o InstanceID) int {
	return cmp.Or(cmp.Compare(id.Op, o.Op), cmp.Compare(id.Part, o.Part))
}

// OpSpec declares a logical operator.
type OpSpec struct {
	// ID is the unique name of the operator within the query.
	ID OpID
	// Role is one of RoleSource, RoleSink, RoleStateless, RoleStateful.
	Role string
	// CostPerTuple is the CPU cost of processing one tuple, in abstract
	// cost units; the simulator divides by VM capacity to obtain service
	// time. Zero means negligible.
	CostPerTuple float64
	// MaxParallelism caps scale out (0 = unlimited). Sources and sinks
	// are pinned to their declared parallelism.
	MaxParallelism int
	// InitialParallelism is the number of instances at deployment
	// (default 1).
	InitialParallelism int
}

// StreamSpec declares a logical stream (edge) between two operators.
type StreamSpec struct {
	From, To OpID
}

// Query is a logical query graph: a DAG from sources to sinks.
type Query struct {
	ops     map[OpID]*OpSpec
	order   []OpID // insertion order, for deterministic iteration
	streams []StreamSpec
	up      map[OpID][]OpID
	down    map[OpID][]OpID
	// errs collects construction mistakes (empty or duplicate operator
	// IDs, streams referencing undeclared operators). They are deferred
	// so query construction stays fluent, and surface as the first
	// result of Validate — long before any runtime touches the graph.
	errs []error
}

// NewQuery returns an empty query graph.
func NewQuery() *Query {
	return &Query{
		ops:  make(map[OpID]*OpSpec),
		up:   make(map[OpID][]OpID),
		down: make(map[OpID][]OpID),
	}
}

// AddOp adds a logical operator. Empty and duplicate IDs are recorded as
// construction errors reported by Validate.
func (q *Query) AddOp(spec OpSpec) *Query {
	if spec.ID == "" {
		q.errs = append(q.errs, errors.New("plan: operator with empty ID"))
		return q
	}
	if _, dup := q.ops[spec.ID]; dup {
		q.errs = append(q.errs, fmt.Errorf("plan: duplicate operator %q", spec.ID))
		return q
	}
	if spec.InitialParallelism <= 0 {
		spec.InitialParallelism = 1
	}
	s := spec
	q.ops[spec.ID] = &s
	q.order = append(q.order, spec.ID)
	return q
}

// Connect adds a stream from one operator to another. Streams naming
// operators never declared with AddOp are rejected: the dangling edge is
// recorded as a construction error reported by Validate, instead of
// surfacing later as a confusing runtime failure.
func (q *Query) Connect(from, to OpID) *Query {
	ok := true
	if _, declared := q.ops[from]; !declared {
		q.errs = append(q.errs, fmt.Errorf(
			"plan: stream %q -> %q: operator %q is not declared (missing AddOp)", from, to, from))
		ok = false
	}
	if _, declared := q.ops[to]; !declared {
		q.errs = append(q.errs, fmt.Errorf(
			"plan: stream %q -> %q: operator %q is not declared (missing AddOp)", from, to, to))
		ok = false
	}
	if !ok {
		return q
	}
	q.streams = append(q.streams, StreamSpec{From: from, To: to})
	q.down[from] = append(q.down[from], to)
	q.up[to] = append(q.up[to], from)
	return q
}

// Op returns the spec for id, or nil.
func (q *Query) Op(id OpID) *OpSpec { return q.ops[id] }

// Ops returns all operator IDs in insertion order.
func (q *Query) Ops() []OpID {
	out := make([]OpID, len(q.order))
	copy(out, q.order)
	return out
}

// Streams returns all logical streams.
func (q *Query) Streams() []StreamSpec {
	out := make([]StreamSpec, len(q.streams))
	copy(out, q.streams)
	return out
}

// Upstream returns the logical upstream operators of id, up(o).
func (q *Query) Upstream(id OpID) []OpID {
	out := make([]OpID, len(q.up[id]))
	copy(out, q.up[id])
	return out
}

// Downstream returns the logical downstream operators of id, down(o).
func (q *Query) Downstream(id OpID) []OpID {
	out := make([]OpID, len(q.down[id]))
	copy(out, q.down[id])
	return out
}

// InputIndex returns the position of stream (from → to) among to's inputs.
// Operators with several input streams see tuples tagged with this index.
// Returns -1 if absent.
func (q *Query) InputIndex(from, to OpID) int {
	for i, u := range q.up[to] {
		if u == from {
			return i
		}
	}
	return -1
}

// Sources returns operators with RoleSource in insertion order.
func (q *Query) Sources() []OpID { return q.byRole(RoleSource) }

// Sinks returns operators with RoleSink in insertion order.
func (q *Query) Sinks() []OpID { return q.byRole(RoleSink) }

func (q *Query) byRole(role string) []OpID {
	var out []OpID
	for _, id := range q.order {
		if q.ops[id].Role == role {
			out = append(out, id)
		}
	}
	return out
}

// Validate checks construction errors deferred by AddOp/Connect and the
// structural invariants: the graph is a DAG, every operator is reachable
// between a source and a sink, sources have no inputs and sinks no
// outputs, and roles are known.
func (q *Query) Validate() error {
	if len(q.errs) > 0 {
		return errors.Join(q.errs...)
	}
	if len(q.ops) == 0 {
		return fmt.Errorf("plan: empty query")
	}
	for _, id := range q.order {
		op := q.ops[id]
		switch op.Role {
		case RoleSource:
			if len(q.up[id]) > 0 {
				return fmt.Errorf("plan: source %q has %d input streams", id, len(q.up[id]))
			}
		case RoleSink:
			if len(q.down[id]) > 0 {
				return fmt.Errorf("plan: sink %q has %d output streams", id, len(q.down[id]))
			}
		case RoleStateless, RoleStateful:
			if len(q.up[id]) == 0 {
				return fmt.Errorf("plan: operator %q has no inputs", id)
			}
			if len(q.down[id]) == 0 {
				return fmt.Errorf("plan: operator %q has no outputs", id)
			}
		default:
			return fmt.Errorf("plan: operator %q has unknown role %q", id, op.Role)
		}
	}
	if len(q.Sources()) == 0 {
		return fmt.Errorf("plan: query has no source")
	}
	if len(q.Sinks()) == 0 {
		return fmt.Errorf("plan: query has no sink")
	}
	if _, err := q.TopoOrder(); err != nil {
		return err
	}
	return nil
}

// TopoOrder returns operators in a topological order (sources first) or an
// error if the graph has a cycle.
func (q *Query) TopoOrder() ([]OpID, error) {
	indeg := make(map[OpID]int, len(q.ops))
	for _, id := range q.order {
		indeg[id] = len(q.up[id])
	}
	var frontier []OpID
	for _, id := range q.order {
		if indeg[id] == 0 {
			frontier = append(frontier, id)
		}
	}
	var out []OpID
	for len(frontier) > 0 {
		// Deterministic order: insertion order already governs frontier
		// construction; pop from the front.
		id := frontier[0]
		frontier = frontier[1:]
		out = append(out, id)
		for _, d := range q.down[id] {
			indeg[d]--
			if indeg[d] == 0 {
				frontier = append(frontier, d)
			}
		}
	}
	if len(out) != len(q.ops) {
		return nil, fmt.Errorf("plan: query graph has a cycle (%d of %d ordered)", len(out), len(q.ops))
	}
	return out, nil
}

// ExecGraph is the physical realisation of a query: the set of live
// partitioned instances per logical operator. It tracks the next unused
// partition number per operator so replaced instances never share an ID.
type ExecGraph struct {
	query     *Query
	instances map[OpID][]InstanceID
	nextPart  map[OpID]int
}

// NewExecGraph materialises the initial execution graph: each logical
// operator gets InitialParallelism instances numbered from 1.
func NewExecGraph(q *Query) *ExecGraph {
	g := &ExecGraph{
		query:     q,
		instances: make(map[OpID][]InstanceID),
		nextPart:  make(map[OpID]int),
	}
	for _, id := range q.order {
		n := q.ops[id].InitialParallelism
		for i := 0; i < n; i++ {
			g.addInstance(id)
		}
	}
	return g
}

// NextPart returns the next unused partition number of id — the
// counter a durable control plane must journal so a restored graph
// never reuses a partition number (including numbers allocated and
// retired since the last snapshot).
func (g *ExecGraph) NextPart(id OpID) int { return g.nextPart[id] }

// RestoreExecGraph rebuilds a physical graph from journaled state: the
// live instances and the next-partition counter of every operator.
// Each counter must be at least the highest partition number among the
// operator's live instances — a lower counter would hand out partition
// numbers already in use, breaking the never-reused invariant stale
// message detection rests on.
func RestoreExecGraph(q *Query, instances map[OpID][]InstanceID, nextPart map[OpID]int) (*ExecGraph, error) {
	g := &ExecGraph{
		query:     q,
		instances: make(map[OpID][]InstanceID),
		nextPart:  make(map[OpID]int),
	}
	for _, id := range q.order {
		next := nextPart[id]
		for _, inst := range instances[id] {
			if inst.Op != id {
				return nil, fmt.Errorf("plan: restore: instance %s listed under operator %q", inst, id)
			}
			if inst.Part > next {
				return nil, fmt.Errorf("plan: restore: %s exceeds journaled partition counter %d", inst, next)
			}
			g.instances[id] = append(g.instances[id], inst)
		}
		g.nextPart[id] = next
	}
	for op := range instances {
		if q.Op(op) == nil {
			return nil, fmt.Errorf("plan: restore: unknown operator %q", op)
		}
	}
	return g, nil
}

func (g *ExecGraph) addInstance(id OpID) InstanceID {
	g.nextPart[id]++
	inst := InstanceID{Op: id, Part: g.nextPart[id]}
	g.instances[id] = append(g.instances[id], inst)
	return inst
}

// Instances returns the live instances of a logical operator, sorted by
// partition number.
func (g *ExecGraph) Instances(id OpID) []InstanceID {
	out := make([]InstanceID, len(g.instances[id]))
	copy(out, g.instances[id])
	sort.Slice(out, func(i, j int) bool { return out[i].Part < out[j].Part })
	return out
}

// AllInstances returns every live instance in deterministic order.
func (g *ExecGraph) AllInstances() []InstanceID {
	var out []InstanceID
	for _, id := range g.query.order {
		out = append(out, g.Instances(id)...)
	}
	return out
}

// Parallelism returns the current number of live instances of id.
func (g *ExecGraph) Parallelism(id OpID) int { return len(g.instances[id]) }

// TotalInstances returns the number of live instances across all operators.
func (g *ExecGraph) TotalInstances() int {
	n := 0
	for _, insts := range g.instances {
		n += len(insts)
	}
	return n
}

// Replace removes the instances `old` of logical operator id and creates
// π fresh instances with new partition numbers, returning them. This is
// the execution-graph side of scale-out-operator(o, π): the old instances
// (possibly just one, possibly failed) are superseded by π new ones.
func (g *ExecGraph) Replace(id OpID, old []InstanceID, pi int) ([]InstanceID, error) {
	if pi < 1 {
		return nil, fmt.Errorf("plan: replace %q with parallelism %d", id, pi)
	}
	live := g.instances[id]
	for _, o := range old {
		found := false
		for _, l := range live {
			if l == o {
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("plan: instance %s is not live", o)
		}
	}
	kept := live[:0]
	for _, l := range live {
		stale := false
		for _, o := range old {
			if l == o {
				stale = true
				break
			}
		}
		if !stale {
			kept = append(kept, l)
		}
	}
	g.instances[id] = kept
	out := make([]InstanceID, 0, pi)
	for i := 0; i < pi; i++ {
		out = append(out, g.addInstance(id))
	}
	return out, nil
}

// Remove deletes an instance without replacement (scale-in).
func (g *ExecGraph) Remove(inst InstanceID) error {
	live := g.instances[inst.Op]
	for i, l := range live {
		if l == inst {
			g.instances[inst.Op] = append(live[:i], live[i+1:]...)
			return nil
		}
	}
	return fmt.Errorf("plan: instance %s is not live", inst)
}

// Live reports whether inst is part of the current execution graph.
func (g *ExecGraph) Live(inst InstanceID) bool {
	for _, l := range g.instances[inst.Op] {
		if l == inst {
			return true
		}
	}
	return false
}
