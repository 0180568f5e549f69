package control

import (
	"reflect"
	"testing"

	"seep/internal/core"
	"seep/internal/plan"
)

// scalerRig is a runtime reduced to what a scaling round touches: a
// query manager, the table of instances the runtime hosts, and a View
// over both. It executes a round's decisions the way every runtime does
// — Plan, Complete, Forget — synchronously.
type scalerRig struct {
	t      *testing.T
	mgr    *core.Manager
	hosted map[plan.InstanceID]bool
	// busy marks the victims of the transition execute is running.
	busy map[plan.InstanceID]bool
	view View
}

// The three runtimes differ only in what makes an instance a live merge
// candidate; each flavour mirrors one of them over the rig's tables.
var rigFlavours = map[string]func(r *scalerRig) func(plan.InstanceID) bool{
	// engine: a hosted node that has not failed.
	"engine": func(r *scalerRig) func(plan.InstanceID) bool {
		return func(inst plan.InstanceID) bool { return r.hosted[inst] }
	},
	// coordinator: live in the graph and placed on a worker.
	"coordinator": func(r *scalerRig) func(plan.InstanceID) bool {
		return func(inst plan.InstanceID) bool { return r.mgr.Live(inst) && r.hosted[inst] }
	},
	// sim: a node that exists and is in no transition.
	"sim": func(r *scalerRig) func(plan.InstanceID) bool {
		return func(inst plan.InstanceID) bool { return r.hosted[inst] && !r.busy[inst] }
	},
}

func newScalerRig(t *testing.T, flavour string) *scalerRig {
	t.Helper()
	q := plan.NewQuery()
	q.AddOp(plan.OpSpec{ID: "src", Role: plan.RoleSource})
	// Stateless, so a transition plans without a backed-up checkpoint.
	q.AddOp(plan.OpSpec{ID: "work", Role: plan.RoleStateless, MaxParallelism: 3})
	q.AddOp(plan.OpSpec{ID: "sink", Role: plan.RoleSink})
	q.Connect("src", "work").Connect("work", "sink")
	mgr, err := core.NewManager(q)
	if err != nil {
		t.Fatal(err)
	}
	r := &scalerRig{t: t, mgr: mgr, hosted: map[plan.InstanceID]bool{inst("work", 1): true}, busy: map[plan.InstanceID]bool{}}
	r.view = View{Room: mgr.Room, Routing: mgr.Routing, Live: rigFlavours[flavour](r)}
	return r
}

// execute runs one decision and closes the books on it.
func (r *scalerRig) execute(s *Scaler, victims []plan.InstanceID, pi int) {
	r.t.Helper()
	for _, v := range victims {
		r.busy[v] = true
	}
	tp, err := r.mgr.Plan(victims, pi, false)
	if err != nil {
		r.t.Fatalf("plan %v → %d: %v", victims, pi, err)
	}
	for _, v := range victims {
		delete(r.hosted, v)
		delete(r.busy, v)
	}
	for _, ni := range tp.NewInstances {
		r.hosted[ni] = true
	}
	r.mgr.Complete(tp, false, 0, 0, 0)
	s.Forget(victims)
}

// TestScalerRoundScript drives one report script through a Scaler under
// each runtime's view and checks round by round that the decisions are
// the expected ones — and therefore the same on all three: a bottleneck
// splits after k hot reports; a split the runtime refuses is unmuted and
// fires again; at MaxParallelism the Scaler itself refuses and unmutes;
// all-idle partitions merge pairwise, least-loaded adjacent pair first;
// and the once-refused bottleneck splits after its siblings merged —
// which it never could while a refusal left it muted.
func TestScalerRoundScript(t *testing.T) {
	w := func(part int) plan.InstanceID { return inst("work", part) }
	type round struct {
		utils  map[int]float64 // partition → utilisation
		splits []plan.InstanceID
		merges [][]plan.InstanceID
		refuse bool // the runtime refuses this round's split
	}
	script := []round{
		{utils: map[int]float64{1: 0.9}},
		{utils: map[int]float64{1: 0.9}, splits: []plan.InstanceID{w(1)}, refuse: true},
		{utils: map[int]float64{1: 0.9}},
		{utils: map[int]float64{1: 0.9}, splits: []plan.InstanceID{w(1)}}, // → w2 w3
		{utils: map[int]float64{2: 0.9, 3: 0.3}},
		{utils: map[int]float64{2: 0.9, 3: 0.3}, splits: []plan.InstanceID{w(2)}}, // → w4 w5 | w3
		// At MaxParallelism: refused by the Scaler, twice over.
		{utils: map[int]float64{4: 0.3, 5: 0.3, 3: 0.9}},
		{utils: map[int]float64{4: 0.3, 5: 0.3, 3: 0.9}},
		{utils: map[int]float64{4: 0.3, 5: 0.3, 3: 0.9}},
		{utils: map[int]float64{4: 0.3, 5: 0.3, 3: 0.9}},
		// All idle for k rounds: the lighter adjacent pair merges.
		{utils: map[int]float64{4: 0.05, 5: 0.05, 3: 0.2}},
		{utils: map[int]float64{4: 0.05, 5: 0.05, 3: 0.2}, merges: [][]plan.InstanceID{{w(4), w(5)}}}, // → w6 | w3
		// Room again: the bottleneck refused at the maximum splits now.
		{utils: map[int]float64{6: 0.3, 3: 0.9}},
		{utils: map[int]float64{6: 0.3, 3: 0.9}, splits: []plan.InstanceID{w(3)}}, // → w6 | w7 w8
	}
	for flavour := range rigFlavours {
		t.Run(flavour, func(t *testing.T) {
			rig := newScalerRig(t, flavour)
			s := NewScaler(Policy{Threshold: 0.7, ConsecutiveReports: 2}, &ScaleInPolicy{LowWatermark: 0.25, ConsecutiveReports: 2})
			for i, rd := range script {
				var reports []Report
				for part, util := range rd.utils {
					reports = append(reports, Report{Inst: w(part), Util: util})
				}
				splits, merges := s.Round(reports, rig.view)
				if !reflect.DeepEqual(splits, rd.splits) || !reflect.DeepEqual(merges, rd.merges) {
					t.Fatalf("round %d: decisions = split %v merge %v, want split %v merge %v", i+1, splits, merges, rd.splits, rd.merges)
				}
				for _, victim := range splits {
					if rd.refuse {
						s.Unmute(victim)
						continue
					}
					rig.execute(s, []plan.InstanceID{victim}, 2)
				}
				for _, pair := range merges {
					rig.execute(s, pair, 1)
				}
			}
			if got := rig.mgr.Instances("work"); !reflect.DeepEqual(got, []plan.InstanceID{w(6), w(7), w(8)}) {
				t.Errorf("instances = %v, want work#6 work#7 work#8", got)
			}
			if recs := rig.mgr.Records(); len(recs) != 4 || rig.mgr.Merges() != 1 {
				t.Errorf("books: %d records, %d merges; want 4 and 1: %+v", len(recs), rig.mgr.Merges(), recs)
			}
			// Forget ran with every Complete: nothing is kept for an
			// instance that left the graph.
			for v := range s.det.muted {
				t.Errorf("superseded or refused %v is still muted", v)
			}
			for v := range s.det.streak {
				if !rig.mgr.Live(v) {
					t.Errorf("streak kept for superseded %v", v)
				}
			}
		})
	}
}

// TestScalerNil: a nil Scaler is a disabled policy, so runtimes call
// Unmute and Forget unconditionally.
func TestScalerNil(t *testing.T) {
	var s *Scaler
	s.Unmute(inst("work", 1))
	s.Forget([]plan.InstanceID{inst("work", 1)})
}
