package state

import (
	"fmt"
	"iter"
	"math/rand"
	"sort"
	"testing"

	"seep/internal/plan"
	"seep/internal/stream"
)

// retained is the ground truth a replay test builds its buffers from: a
// tuple stamped by sender from and retained for downstream instance to.
type retained struct {
	from, to plan.InstanceID
	t        stream.Tuple
}

// randomRetention draws, per sender, a timestamp-ordered run of tuples
// spread over targets, and the buffers holding them (senders[0]'s own
// buffer first, the rest as legacy buffers keyed by owner).
func randomRetention(rng *rand.Rand, senders, targets []plan.InstanceID) ([]retained, *Buffer, map[plan.InstanceID]*Buffer) {
	var truth []retained
	own := NewBuffer()
	legacy := make(map[plan.InstanceID]*Buffer)
	for i, s := range senders {
		b := own
		if i > 0 {
			b = NewBuffer()
			legacy[s] = b
		}
		ts := int64(0)
		for n := rng.Intn(40); n > 0; n-- {
			ts += 1 + int64(rng.Intn(3))
			to := targets[rng.Intn(len(targets))]
			tu := tuple(ts, stream.Key(rng.Uint64()))
			b.Append(to, tu)
			truth = append(truth, retained{from: s, to: to, t: tu})
		}
	}
	return truth, own, legacy
}

// randomRouting tiles the key space over insts at random cut points.
func randomRouting(t *testing.T, rng *rand.Rand, insts []plan.InstanceID) *Routing {
	t.Helper()
	step := uint64(stream.MaxKey) / uint64(len(insts))
	entries := make([]RouteEntry, len(insts))
	lo := stream.Key(0)
	for i, in := range insts {
		hi := stream.MaxKey
		if i < len(insts)-1 {
			hi = stream.Key(step*uint64(i+1) - rng.Uint64()%(step/2))
		}
		entries[i] = RouteEntry{Target: in, Range: KeyRange{Lo: lo, Hi: hi}}
		lo = hi + 1
	}
	r, err := NewRoutingFromEntries(entries)
	if err != nil {
		t.Fatalf("routing %v: %v", entries, err)
	}
	return r
}

// checkReplay compares an enumeration with the expected replay set as
// multisets, and checks that each sender's tuples reach each destination
// in timestamp order when ordered is set.
func checkReplay(t *testing.T, seq iter.Seq[Replay], want []retained, ordered bool) {
	t.Helper()
	render := func(from, to plan.InstanceID, tu stream.Tuple) string {
		return fmt.Sprintf("%v→%v ts=%d key=%d", from, to, tu.TS, tu.Key)
	}
	var got, exp []string
	last := make(map[[2]plan.InstanceID]int64)
	for r := range seq {
		got = append(got, render(r.From, r.To, r.T))
		edge := [2]plan.InstanceID{r.From, r.To}
		if ordered && r.T.TS <= last[edge] {
			t.Errorf("%v→%v: ts %d replayed after %d", r.From, r.To, r.T.TS, last[edge])
		}
		last[edge] = r.T.TS
	}
	for _, w := range want {
		exp = append(exp, render(w.from, w.to, w.t))
	}
	sort.Strings(got)
	sort.Strings(exp)
	if fmt.Sprint(got) != fmt.Sprint(exp) {
		t.Errorf("replay set:\n got %v\nwant %v", got, exp)
	}
}

// TestDownstreamReplayProperty: a restored checkpoint replays every
// tuple its own buffer and its legacy buffers retain, each under the
// identity of the sender that stamped it, to the instance that owns the
// tuple's key NOW — the recorded target when the downstream operator
// was not repartitioned since the checkpoint, the current owner when it
// was (here "agg" was split from two partitions into three) — and to the
// recorded target when the routing state does not know the operator.
func TestDownstreamReplayProperty(t *testing.T) {
	self, v1, v2 := inst("count", 7), inst("count", 3), inst("count", 4)
	oldAgg := []plan.InstanceID{inst("agg", 1), inst("agg", 2)}
	newAgg := []plan.InstanceID{inst("agg", 3), inst("agg", 4), inst("agg", 5)}
	targets := append([]plan.InstanceID{inst("join", 1), inst("audit", 1)}, oldAgg...)
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		truth, own, legacy := randomRetention(rng, []plan.InstanceID{self, v1, v2}, targets)
		cp := &Checkpoint{Instance: self, Buffer: own, Legacy: legacy}
		aggRouting := randomRouting(t, rng, newAgg)
		routing := func(op plan.OpID) *Routing {
			switch op {
			case "agg":
				return aggRouting
			case "join":
				return NewRouting(inst("join", 1))
			}
			return nil // "audit": unknown to the routing state
		}
		want := make([]retained, len(truth))
		for i, w := range truth {
			if w.to.Op == "agg" {
				w.to = aggRouting.Lookup(w.t.Key)
			}
			want[i] = w
		}
		// Order is only per recorded target, which a re-lookup merges.
		checkReplay(t, DownstreamReplay(cp, routing), want, false)
		checkReplay(t, DownstreamReplay(cp, func(plan.OpID) *Routing { return nil }), truth, true)
	}
}

// TestUpstreamReplayProperty: once Reroute has repartitioned its buffers
// under a transition's routing, an upstream node replays to the NEW instances
// exactly the tuples it (or a retired sibling whose legacy buffer it
// hosts) retained for the rerouted operator whose keys they now own —
// not what surviving siblings own, not what other operators are owed —
// under the original sender's identity and in its timestamp order.
func TestUpstreamReplayProperty(t *testing.T) {
	self, v1, v2 := inst("split", 5), inst("split", 1), inst("split", 2)
	victim, sibling := inst("count", 1), inst("count", 2)
	newInsts := []plan.InstanceID{inst("count", 3), inst("count", 4)}
	targets := []plan.InstanceID{victim, sibling, inst("audit", 1)}
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		truth, own, legacy := randomRetention(rng, []plan.InstanceID{self, v1, v2}, targets)
		routing := randomRouting(t, rng, append([]plan.InstanceID{sibling}, newInsts...))
		var want []retained
		for _, w := range truth {
			if to := routing.Lookup(w.t.Key); w.to.Op == "count" && to != sibling {
				w.to = to
				want = append(want, w)
			}
		}
		up := Instance{Buffer: own, Legacy: legacy}
		checkReplay(t, up.Reroute(self, "count", routing, newInsts), want, true)
	}
}
