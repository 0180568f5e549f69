// Package topk builds the map/reduce-style top-k query of §6.1 (open
// loop workload): sources inject page-view records, a stateless map
// operator projects away unneeded fields, and a stateful reduce operator
// maintains a top-k dictionary of visited Wikipedia language versions; a
// merger aggregates partial rankings when the reducer is partitioned.
//
// Substitution for the §6.1 input: the paper replays Wikipedia page-view
// traces; we generate a synthetic trace with a Zipf-distributed language
// field, which preserves the key skew and state shape that drive the
// experiment.
package topk

import (
	"fmt"
	"math/rand"

	"seep/internal/flow"
	"seep/internal/operator"
	"seep/internal/plan"
	"seep/internal/sim"
	"seep/internal/stream"
)

// PageView is one synthetic trace record.
type PageView struct {
	// Lang is the Wikipedia language version, e.g. "en".
	Lang string
	// Page and Bytes mimic the unneeded fields the map stage strips.
	Page  string
	Bytes int32
}

// Languages is the synthetic language universe, most-popular first.
var Languages = []string{
	"en", "de", "fr", "es", "ja", "ru", "it", "pt", "zh", "pl",
	"nl", "sv", "ko", "ar", "tr", "fa", "cs", "fi", "hu", "el",
}

// TraceSource generates Zipf-distributed page views.
func TraceSource(seed int64) sim.Generator {
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, 1.3, 1.0, uint64(len(Languages)-1))
	return func(i uint64) (stream.Key, any) {
		lang := Languages[zipf.Uint64()]
		pv := PageView{
			Lang:  lang,
			Page:  fmt.Sprintf("page-%d", rng.Intn(1_000_000)),
			Bytes: int32(rng.Intn(65536)),
		}
		return stream.KeyOfString(lang), pv
	}
}

// MapOperator strips unneeded fields, emitting just the language keyed by
// language (so the partitioned reducer counts each language in one
// place).
func MapOperator() operator.Operator {
	return operator.Func(func(_ operator.Context, t stream.Tuple, emit operator.Emitter) {
		pv, ok := t.Payload.(PageView)
		if !ok {
			return
		}
		emit(stream.KeyOfString(pv.Lang), pv.Lang)
	})
}

// Options shape the top-k query.
type Options struct {
	// K is the ranking depth (default 10).
	K int
	// EmitEveryMillis is the ranking period (30 s in the paper).
	EmitEveryMillis int64
	// MapCost and ReduceCost are per-tuple CPU costs.
	MapCost, ReduceCost float64
	// Sources is the number of data sources (18 in the paper).
	Sources int
}

// DefaultOptions mirror §6.1.
func DefaultOptions() Options {
	return Options{K: 10, EmitEveryMillis: 30_000, MapCost: 0.0002, ReduceCost: 0.0005, Sources: 2}
}

// Query returns the map/reduce-style query graph: src → map → reduce →
// merge → sink.
func Query(o Options) *plan.Query {
	q := plan.NewQuery()
	q.AddOp(plan.OpSpec{ID: "src", Role: plan.RoleSource, InitialParallelism: o.Sources})
	q.AddOp(plan.OpSpec{ID: "map", Role: plan.RoleStateless, CostPerTuple: o.MapCost})
	q.AddOp(plan.OpSpec{ID: "reduce", Role: plan.RoleStateful, CostPerTuple: o.ReduceCost})
	q.AddOp(plan.OpSpec{ID: "merge", Role: plan.RoleStateful, CostPerTuple: 0.0001})
	q.AddOp(plan.OpSpec{ID: "sink", Role: plan.RoleSink})
	q.Connect("src", "map")
	q.Connect("map", "reduce")
	q.Connect("reduce", "merge")
	q.Connect("merge", "sink")
	return q
}

// Factories returns operator factories for Query.
func Factories(o Options) map[plan.OpID]operator.Factory {
	k := o.K
	if k <= 0 {
		k = 10
	}
	return map[plan.OpID]operator.Factory{
		"map":    func() operator.Operator { return MapOperator() },
		"reduce": func() operator.Operator { return operator.NewTopKReducer(k, o.EmitEveryMillis) },
		"merge":  func() operator.Operator { return operator.NewTopKMerger(k) },
	}
}

// FlowOps returns the flow-level topology for the open-loop scale-out
// experiment (Fig. 8): the map operator is cheaper and stateless (scales
// out faster), the reduce operator is stateful with restore delays —
// reproducing the paper's observation that "the stateless map operators
// scale out faster than the stateful reduce operators".
func FlowOps() ([]flow.OpConfig, []flow.Edge) {
	ops := []flow.OpConfig{
		{ID: "src", Role: plan.RoleSource},
		{ID: "map", Role: plan.RoleStateless, CostPerTuple: 3.0e-5, Selectivity: 1.0},
		{ID: "reduce", Role: plan.RoleStateful, CostPerTuple: 1.5e-5, Selectivity: 0.01, Stateful: true},
		{ID: "merge", Role: plan.RoleStateful, CostPerTuple: 0.5e-5, Selectivity: 1.0, Stateful: true},
		{ID: "snk", Role: plan.RoleSink},
	}
	edges := []flow.Edge{
		{From: "src", To: "map"},
		{From: "map", To: "reduce"},
		{From: "reduce", To: "merge"},
		{From: "merge", To: "snk"},
	}
	return ops, edges
}
