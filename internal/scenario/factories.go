package scenario

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"seep"
)

// The factory registry maps scenario `kind` names to operator
// factories, mirroring the WorkerRegistry idea: scenario files name
// operators symbolically and every binary running them resolves the
// names against its compiled-in registry. The built-ins cover the
// library operators scenarios exercise; binaries embedding the runner
// can add their own with RegisterFactory.

// FactoryFunc builds one operator factory from an op spec (so kinds can
// read per-op parameters such as window-millis).
type FactoryFunc func(op OpSpec) seep.Factory

// stateless marks kinds declared via Topology.Stateless; everything
// else registers as Stateful.
var (
	factoryMu sync.Mutex
	factories = map[string]FactoryFunc{
		"word-splitter": func(OpSpec) seep.Factory {
			return func() seep.Operator { return seep.WordSplitter() }
		},
		"passthrough": func(OpSpec) seep.Factory {
			return func() seep.Operator { return seep.Passthrough() }
		},
		"word-counter": func(op OpSpec) seep.Factory {
			return func() seep.Operator { return seep.NewWordCounter(op.WindowMillis) }
		},
		"keyed-sum": func(op OpSpec) seep.Factory {
			return func() seep.Operator {
				return seep.NewKeyedSum(op.WindowMillis, func(p any) (float64, bool) {
					switch v := p.(type) {
					case float64:
						return v, true
					case int64:
						return float64(v), true
					case int:
						return float64(v), true
					case string:
						return 1, true // counting mode: each word contributes 1
					}
					return 0, false
				})
			}
		},
	}
	statelessKinds = map[string]bool{
		"word-splitter": true,
		"passthrough":   true,
	}
)

// RegisterFactory adds (or replaces) a factory kind. Stateless kinds
// run without managed state — they are declared via
// Topology.Stateless and are never checkpointed.
func RegisterFactory(kind string, stateless bool, f FactoryFunc) {
	factoryMu.Lock()
	defer factoryMu.Unlock()
	factories[kind] = f
	statelessKinds[kind] = stateless
}

// HasFactory reports whether a kind is registered ("source" and "sink"
// are structural, not factories).
func HasFactory(kind string) bool {
	factoryMu.Lock()
	defer factoryMu.Unlock()
	_, ok := factories[kind]
	return ok
}

func factoryNames() string {
	factoryMu.Lock()
	defer factoryMu.Unlock()
	names := make([]string, 0, len(factories))
	for k := range factories {
		names = append(names, k)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// buildTopology compiles the scenario's topology spec into a
// seep.Topology.
func buildTopology(s *Scenario) (*seep.Topology, error) {
	t := seep.NewTopology()
	for _, op := range s.Ops {
		var opts []seep.OpOption
		if op.Parallelism > 0 {
			opts = append(opts, seep.Parallelism(op.Parallelism))
		}
		if op.MaxParallelism > 0 {
			opts = append(opts, seep.MaxParallelism(op.MaxParallelism))
		}
		if op.Cost > 0 {
			opts = append(opts, seep.Cost(op.Cost))
		}
		switch op.Kind {
		case "source":
			t.Source(op.ID, opts...)
		case "sink":
			t.Sink(op.ID, opts...)
		default:
			factoryMu.Lock()
			f, ok := factories[op.Kind]
			stateless := statelessKinds[op.Kind]
			factoryMu.Unlock()
			if !ok {
				return nil, &SchemaError{Kind: ErrUnknownFactory, Path: "topology.ops",
					Msg: fmt.Sprintf("unknown factory %q (have: %s)", op.Kind, factoryNames())}
			}
			if stateless {
				t.Stateless(op.ID, f(op), opts...)
			} else {
				t.Stateful(op.ID, f(op), opts...)
			}
		}
	}
	for _, c := range s.Connections {
		t.Connect(c[0], c[1])
	}
	return t.Build()
}
