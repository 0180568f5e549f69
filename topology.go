package seep

import (
	"errors"
	"fmt"
	"sync"

	"seep/internal/operator"
	"seep/internal/plan"
)

// Topology is a fluent, validating builder that binds the two halves of
// a query — the logical graph and the operator factories — in one place:
//
//	topo, err := seep.NewTopology().
//		Source("src").
//		Stateless("split", func() seep.Operator { return seep.WordSplitter() }).
//		Stateful("count", func() seep.Operator { return seep.NewWordCounter(0) }).
//		Sink("sink").
//		Build()
//
// Operators declared in sequence are chained linearly unless explicit
// Connect calls are made; non-linear DAGs (fan-out, fan-in, diamonds)
// declare every stream with Connect:
//
//	seep.NewTopology().
//		Source("feeder").
//		Stateful("assessment", f).
//		Stateless("collector", g).
//		Stateful("balance", h).
//		Sink("sink").
//		Connect("feeder", "assessment").
//		Connect("assessment", "collector").Connect("assessment", "balance").
//		Connect("collector", "sink").Connect("balance", "sink").
//		Build()
//
// Build validates the whole declaration — duplicate or empty operator
// IDs, streams to undeclared operators, cycles, unreachable operators,
// role violations (sources with inputs, sinks with outputs), nil
// factories, Stateful operators that are not Managed — and returns every
// problem as one error instead of letting
// it surface as a panic or a silent runtime misbehaviour. A built
// Topology is immutable and can be deployed on any Runtime.
type Topology struct {
	// mu makes Build/Deploy safe to race — one topology deployed on
	// both runtimes concurrently is an advertised usage.
	mu        sync.Mutex
	specs     []plan.OpSpec
	factories map[OpID]Factory
	edges     []struct{ from, to OpID }
	errs      []error

	// query is non-nil once Build has succeeded.
	query *plan.Query
}

// NewTopology returns an empty topology builder.
func NewTopology() *Topology {
	return &Topology{factories: make(map[OpID]Factory)}
}

// OpOption tweaks one operator declaration.
type OpOption func(*plan.OpSpec)

// Cost declares the CPU cost of processing one tuple, in abstract cost
// units; the simulated runtime divides it by VM capacity to obtain
// service time.
func Cost(perTuple float64) OpOption {
	return func(s *plan.OpSpec) { s.CostPerTuple = perTuple }
}

// MaxParallelism caps how far the operator can be scaled out
// (0 = unlimited).
func MaxParallelism(n int) OpOption {
	return func(s *plan.OpSpec) { s.MaxParallelism = n }
}

// Parallelism sets the number of instances at deployment (default 1).
func Parallelism(n int) OpOption {
	return func(s *plan.OpSpec) { s.InitialParallelism = n }
}

// Source declares a tuple-injecting operator. Sources are assumed
// reliable and host no user code; tuples are supplied through
// Job.AddSource or Job.InjectBatch.
func (t *Topology) Source(id string, opts ...OpOption) *Topology {
	return t.declare(plan.OpSpec{ID: OpID(id), Role: plan.RoleSource}, nil, false, opts)
}

// Stateless declares an operator with no managed state, built by f.
func (t *Topology) Stateless(id string, f Factory, opts ...OpOption) *Topology {
	return t.declare(plan.OpSpec{ID: OpID(id), Role: plan.RoleStateless}, f, true, opts)
}

// Stateful declares an operator whose state the system checkpoints,
// backs up, partitions and restores, built by f. The operator returned
// by f must implement Managed (managed state cells against a
// StateStore): Build instantiates f once and rejects anything else,
// because state the system cannot see is lost on the first recovery.
func (t *Topology) Stateful(id string, f Factory, opts ...OpOption) *Topology {
	return t.declare(plan.OpSpec{ID: OpID(id), Role: plan.RoleStateful}, f, true, opts)
}

// Sink declares a result-gathering operator. Sinks are assumed reliable
// and host no user code; results are observed through Job.OnSink.
func (t *Topology) Sink(id string, opts ...OpOption) *Topology {
	return t.declare(plan.OpSpec{ID: OpID(id), Role: plan.RoleSink}, nil, false, opts)
}

func (t *Topology) declare(spec plan.OpSpec, f Factory, needsFactory bool, opts []OpOption) *Topology {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.query != nil {
		t.errs = append(t.errs, fmt.Errorf("seep: topology already built; declare %q before Build", spec.ID))
		return t
	}
	if needsFactory && f == nil {
		t.errs = append(t.errs, fmt.Errorf("seep: operator %q: nil factory", spec.ID))
	}
	for _, o := range opts {
		o(&spec)
	}
	t.specs = append(t.specs, spec)
	if f != nil {
		t.factories[spec.ID] = f
	}
	return t
}

// Connect declares a stream from one operator to another. Once any
// explicit Connect call is made, implicit linear chaining is disabled
// and every stream of the topology must be declared.
func (t *Topology) Connect(from, to string) *Topology {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.query != nil {
		t.errs = append(t.errs, fmt.Errorf("seep: topology already built; connect %q -> %q before Build", from, to))
		return t
	}
	t.edges = append(t.edges, struct{ from, to OpID }{OpID(from), OpID(to)})
	return t
}

// Build validates the topology and freezes it. It returns the topology
// itself for single-expression construction, or the combined list of
// declaration errors: duplicate/empty IDs, streams naming undeclared
// operators, cycles, operators unreachable between a source and a sink,
// role violations, nil factories and Stateful operators whose factory
// does not build a Managed operator.
func (t *Topology) Build() (*Topology, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.buildLocked()
}

func (t *Topology) buildLocked() (*Topology, error) {
	if t.query != nil {
		// Declarations attempted after a successful Build are errors,
		// never silently dropped.
		if len(t.errs) > 0 {
			return nil, errors.Join(t.errs...)
		}
		return t, nil
	}
	q := plan.NewQuery()
	for _, spec := range t.specs {
		q.AddOp(spec)
	}
	edges := t.edges
	if len(edges) == 0 {
		// Linear chain in declaration order.
		for i := 1; i < len(t.specs); i++ {
			edges = append(edges, struct{ from, to OpID }{t.specs[i-1].ID, t.specs[i].ID})
		}
	}
	for _, e := range edges {
		q.Connect(e.from, e.to)
	}
	errs := t.errs
	if err := q.Validate(); err != nil {
		errs = append(errs, err)
	}
	for _, spec := range t.specs {
		f := t.factories[spec.ID]
		if spec.Role != plan.RoleStateful || f == nil {
			continue
		}
		if m, ok := f().(Managed); !ok || m.State() == nil {
			errs = append(errs, fmt.Errorf("seep: operator %q: declared Stateful but its factory does not build a Managed operator with a state store", spec.ID))
		}
	}
	if len(errs) > 0 {
		return nil, errors.Join(errs...)
	}
	t.query = q
	return t, nil
}

// MustBuild is Build for static topologies known to be correct; it
// panics on validation errors.
func (t *Topology) MustBuild() *Topology {
	built, err := t.Build()
	if err != nil {
		panic(err)
	}
	return built
}

// Query returns the validated logical query graph (nil before a
// successful Build).
func (t *Topology) Query() *plan.Query {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.query
}

// Factories returns the operator factory bound to each non-source,
// non-sink operator.
func (t *Topology) Factories() map[OpID]Factory {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[OpID]Factory, len(t.factories))
	for id, f := range t.factories {
		out[id] = f
	}
	return out
}

// built returns the validated query and factories, building on demand so
// runtimes accept both built and not-yet-built topologies.
func (t *Topology) built() (*plan.Query, map[plan.OpID]operator.Factory, error) {
	if t == nil {
		return nil, nil, errors.New("seep: nil topology")
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, err := t.buildLocked(); err != nil {
		return nil, nil, err
	}
	return t.query, t.factories, nil
}
