package core

import (
	"errors"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"seep/internal/plan"
)

// policyLog records what a sequence asked of the scaling policy.
type policyLog struct{ forgot, unmuted []plan.InstanceID }

func (p *policyLog) Forget(victims []plan.InstanceID) { p.forgot = append(p.forgot, victims...) }
func (p *policyLog) Unmute(victim plan.InstanceID)    { p.unmuted = append(p.unmuted, victim) }

// seqRig is a substrate reduced to its books: a manager whose count
// operator has parts partitions, each with a stored checkpoint.
func seqRig(t *testing.T, parts int) *Manager {
	t.Helper()
	q := wordQuery()
	q.Op("count").InitialParallelism = parts
	m, err := NewManager(q)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range m.Instances("count") {
		storeCheckpoint(t, m, v)
	}
	return m
}

func storeCheckpoint(t *testing.T, m *Manager, v plan.InstanceID) {
	t.Helper()
	host, err := m.BackupTarget(v)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Backups().Store(host, mkCheckpoint(v, 0)); err != nil {
		t.Fatal(err)
	}
}

// show renders an action for a trace: its kind and instances, and for a
// Done whether it failed.
func show(a Action) string {
	out := a.Kind.String()
	insts := a.Insts
	if a.Kind == Place {
		insts = a.Plan.NewInstances
	}
	if a.Kind == Done && a.Err != nil {
		out += ": error"
	}
	for _, in := range insts {
		out += " " + in.String()
	}
	return out
}

// report is the successful answer to an action, and false for an action
// that is not answered. A Retire stores each victim's final checkpoint
// first, as every substrate's does.
func report(t *testing.T, m *Manager, a Action) (Event, bool) {
	switch a.Kind {
	case Retire:
		for _, v := range a.Insts {
			storeCheckpoint(t, m, v)
		}
		return Event{Kind: Retired}, true
	case Place:
		return Event{Kind: Placed, Insts: a.Plan.NewInstances}, true
	case Reroute:
		return Event{Kind: Rerouted, Replayed: 3}, true
	case Adopt:
		return Event{Kind: Adopted, Insts: a.Insts, Replayed: 2, At: 50}, true
	}
	return Event{}, false
}

// inject says which report goes wrong, and how: "err" fails the step
// for its first instance, "failed" and "timeout" replace the report.
type inject struct {
	at   int // index of the report, in the order reports are fed; -1 for none
	mode string
}

// drive runs a sequence the way a synchronous substrate does: every
// action in order, its report fed back at once. It returns the action
// trace and the Done action.
func drive(t *testing.T, m *Manager, sq *Sequencer, inj inject) ([]string, Action) {
	t.Helper()
	var trace []string
	var done *Action
	fed := 0
	for queue := sq.Start(); len(queue) > 0; queue = queue[1:] {
		a := queue[0]
		trace = append(trace, show(a))
		if done != nil {
			t.Fatalf("%s after done; trace %q", show(a), trace)
		}
		if a.Kind == Done {
			done = &a
		}
		ev, ok := report(t, m, a)
		if !ok {
			continue
		}
		if fed == inj.at {
			switch inj.mode {
			case "err":
				ev.Err = errors.New("injected")
				if len(ev.Insts) > 0 {
					ev.Insts = ev.Insts[1:]
				}
			case "failed":
				ev = Event{Kind: Failed, Err: errors.New("injected")}
			case "timeout":
				ev = Event{Kind: Timeout}
			}
		}
		fed++
		queue = append(queue, sq.Step(ev)...)
	}
	if done == nil {
		t.Fatalf("no done; trace %q", trace)
	}
	return trace, *done
}

// TestSequencerShapes runs every shape with a failure injected at each
// report in turn — as the step's own error for its first instance, and
// as a Failed event in its place — and asserts the exact action trace.
// What Recover names is the stranded set: before Plan the victims whose
// retire was issued, after it the replacements not adopted.
func TestSequencerShapes(t *testing.T) {
	const (
		p2  = "place count#2"
		p23 = "place count#2 count#3"
		p3  = "place count#3"
		r1  = "retire count#1"
		rr  = "reroute"
		ok  = "done"
		bad = "done: error"
	)
	type tc struct {
		name  string
		kind  Kind
		parts int // count's partitions; the victims are all of them
		pi    int
		inj   inject
		trace []string
	}
	none := inject{at: -1}
	e := func(at int) inject { return inject{at, "err"} }
	f := func(at int) inject { return inject{at, "failed"} }
	cases := []tc{
		{"recover 1→1", Recovery, 1, 1, none, []string{p2, rr, "adopt count#2", ok}},
		{"recover 1→1, plan fails", Recovery, 1, 0, none, []string{bad}},
		{"recover 1→1, place err", Recovery, 1, 1, e(0), []string{p2, rr, "recover count#2", bad}},
		{"recover 1→1, failed placing", Recovery, 1, 1, f(0), []string{p2, "recover count#2", bad}},
		{"recover 1→1, reroute err", Recovery, 1, 1, e(1), []string{p2, rr, "recover count#2", bad}},
		{"recover 1→1, failed rerouting", Recovery, 1, 1, f(1), []string{p2, rr, "recover count#2", bad}},
		{"recover 1→1, adopt err", Recovery, 1, 1, e(2), []string{p2, rr, "adopt count#2", "recover count#2", bad}},
		{"recover 1→1, failed adopting", Recovery, 1, 1, f(2), []string{p2, rr, "adopt count#2", "recover count#2", bad}},
		{"recover 1→1, timeout adopting", Recovery, 1, 1, inject{2, "timeout"}, []string{p2, rr, "adopt count#2", "recover count#2", bad}},

		{"recover 1→2", Recovery, 1, 2, none, []string{p23, rr, "adopt count#2 count#3", ok}},
		{"recover 1→2, place err", Recovery, 1, 2, e(0), []string{p23, rr, "adopt count#3", "recover count#2", bad}},
		{"recover 1→2, failed placing", Recovery, 1, 2, f(0), []string{p23, "recover count#2 count#3", bad}},
		{"recover 1→2, reroute err", Recovery, 1, 2, e(1), []string{p23, rr, "recover count#2 count#3", bad}},
		{"recover 1→2, adopt err", Recovery, 1, 2, e(2), []string{p23, rr, "adopt count#2 count#3", "recover count#2", bad}},
		{"recover 1→2, failed adopting", Recovery, 1, 2, f(2), []string{p23, rr, "adopt count#2 count#3", "recover count#2 count#3", bad}},

		{"scale out 1→2", ScaleOut, 1, 2, none, []string{r1, p23, rr, "adopt count#2 count#3", ok}},
		{"scale out 1→2, plan fails", ScaleOut, 1, 0, none, []string{r1, "recover count#1", bad}},
		{"scale out 1→2, retire err", ScaleOut, 1, 2, e(0), []string{r1, "recover count#1", bad}},
		{"scale out 1→2, failed retiring", ScaleOut, 1, 2, f(0), []string{r1, "recover count#1", bad}},
		{"scale out 1→2, place err", ScaleOut, 1, 2, e(1), []string{r1, p23, rr, "adopt count#3", "recover count#2", bad}},
		{"scale out 1→2, failed placing", ScaleOut, 1, 2, f(1), []string{r1, p23, "recover count#2 count#3", bad}},
		{"scale out 1→2, reroute err", ScaleOut, 1, 2, e(2), []string{r1, p23, rr, "recover count#2 count#3", bad}},
		{"scale out 1→2, adopt err", ScaleOut, 1, 2, e(3), []string{r1, p23, rr, "adopt count#2 count#3", "recover count#2", bad}},
		{"scale out 1→2, failed adopting", ScaleOut, 1, 2, f(3), []string{r1, p23, rr, "adopt count#2 count#3", "recover count#2 count#3", bad}},

		{"merge 2→1", ScaleIn, 2, 1, none, []string{"retire count#1 count#2", p3, rr, "adopt count#3", "checkpoint count#3", ok}},
		{"merge 2→1, retire err", ScaleIn, 2, 1, e(0), []string{"retire count#1 count#2", "recover count#1 count#2", bad}},
		{"merge 2→1, failed retiring", ScaleIn, 2, 1, f(0), []string{"retire count#1 count#2", "recover count#1 count#2", bad}},
		{"merge 2→1, place err", ScaleIn, 2, 1, e(1), []string{"retire count#1 count#2", p3, rr, "recover count#3", bad}},
		{"merge 2→1, failed placing", ScaleIn, 2, 1, f(1), []string{"retire count#1 count#2", p3, "recover count#3", bad}},
		{"merge 2→1, reroute err", ScaleIn, 2, 1, e(2), []string{"retire count#1 count#2", p3, rr, "recover count#3", bad}},
		{"merge 2→1, adopt err", ScaleIn, 2, 1, e(3), []string{"retire count#1 count#2", p3, rr, "adopt count#3", "recover count#3", bad}},

		// A Fallback reports its strands and never recovers them again.
		{"fallback 1→1", Fallback, 1, 1, none, []string{p2, rr, "adopt count#2", ok}},
		{"fallback 1→1, place err", Fallback, 1, 1, e(0), []string{p2, rr, bad}},
		{"fallback 1→1, failed adopting", Fallback, 1, 1, f(2), []string{p2, rr, "adopt count#2", bad}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m := seqRig(t, c.parts)
			victims := m.Instances("count")
			var pol policyLog
			sq, err := NewSequencer(m, &pol, c.kind, victims, c.pi, 10)
			if err != nil {
				t.Fatal(err)
			}
			trace, done := drive(t, m, sq, c.inj)
			if !slices.Equal(trace, c.trace) {
				t.Errorf("trace\n got %q\nwant %q", trace, c.trace)
			}
			records := m.Records()
			if done.Err == nil {
				// The record is kept once, after every replacement adopted.
				if len(records) != 1 || records[0].Victim != victims[0] || records[0].Failure != c.kind.failure() ||
					records[0].StartedAt != 10 || records[0].CompletedAt != 50 || records[0].ReplayedTuples != 5 {
					t.Errorf("records = %+v", records)
				}
				if !slices.Equal(pol.forgot, victims) || len(pol.unmuted) != 0 {
					t.Errorf("policy forgot %v, unmuted %v; want %v forgotten", pol.forgot, pol.unmuted, victims)
				}
				return
			}
			if len(records) != 0 || len(pol.forgot) != 0 {
				t.Errorf("failed transition kept records %+v, forgot %v", records, pol.forgot)
			}
			if wantUnmute := c.kind == ScaleOut; wantUnmute != (len(pol.unmuted) == 1) {
				t.Errorf("unmuted %v after a failed %s", pol.unmuted, c.kind)
			}
			if c.kind == Fallback && !strings.Contains(done.Err.Error(), "stranded [count#2]") {
				t.Errorf("fallback error %q does not report its strand", done.Err)
			}
			if c.inj.mode == "timeout" && !strings.Contains(done.Err.Error(), "timed out awaiting adopt") {
				t.Errorf("timeout error %q does not name the stage", done.Err)
			}
		})
	}
}

// TestSequencerFallbackAtPiOne: a Fallback recovers its stranded
// instance at π = 1 whatever π it is handed, so the replacement inherits
// the instance's identity instead of re-emitting under fresh ones, and
// an operator already at its max parallelism is still recovered.
func TestSequencerFallbackAtPiOne(t *testing.T) {
	for _, max := range []int{0, 1} {
		m := seqRig(t, 1)
		m.query.Op("count").MaxParallelism = max
		victim := inst("count", 1)
		sq, err := NewSequencer(m, &policyLog{}, Fallback, []plan.InstanceID{victim}, 2, 0)
		if err != nil {
			t.Fatal(err)
		}
		acts := sq.Start()
		if len(acts) != 1 || acts[0].Kind != Place {
			t.Fatalf("max parallelism %d: Start = %v, want one place", max, acts)
		}
		tp := acts[0].Plan
		if len(tp.NewInstances) != 1 {
			t.Errorf("max parallelism %d: fallback handed π = 2 placed %v, want one replacement", max, tp.NewInstances)
		}
		if len(tp.Inherit) != 1 || tp.Inherit[0].Old != victim {
			t.Errorf("max parallelism %d: fallback Inherit = %v, want %s renamed", max, tp.Inherit, victim)
		}
	}
}

// TestSequencerRefusesBadVictims: a bad live victim set is refused
// before anything retires, and a refused scale out unmutes its victim.
func TestSequencerRefusesBadVictims(t *testing.T) {
	m := seqRig(t, 2)
	var pol policyLog
	for _, c := range []struct {
		kind    Kind
		victims []plan.InstanceID
	}{
		{ScaleIn, []plan.InstanceID{inst("count", 1)}},
		{ScaleIn, []plan.InstanceID{inst("count", 1), inst("count", 9)}},
		{ScaleOut, []plan.InstanceID{inst("count", 9)}},
		{ScaleOut, []plan.InstanceID{inst("src", 1)}},
	} {
		if _, err := NewSequencer(m, &pol, c.kind, c.victims, 2, 0); err == nil {
			t.Errorf("%s of %v accepted", c.kind, c.victims)
		}
	}
	if !slices.Equal(pol.unmuted, []plan.InstanceID{inst("count", 9), inst("src", 1)}) {
		t.Errorf("unmuted %v", pol.unmuted)
	}
}

// TestSequencerRandomEventOrder feeds every report — with random
// partial failures, duplicates and stale reports of other stages mixed
// in, and now and then a Failed or a Timeout — in a seeded random order,
// and checks that every Start ends in exactly one Done, as the last
// action, with the record kept exactly when it succeeded.
func TestSequencerRandomEventOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	shapes := []struct {
		kind      Kind
		parts, pi int
	}{{Recovery, 1, 1}, {Recovery, 1, 2}, {ScaleOut, 1, 2}, {ScaleOut, 1, 3}, {ScaleIn, 2, 1}, {ScaleIn, 3, 1}, {Fallback, 1, 2}}
	for i := 0; i < 500; i++ {
		sh := shapes[rng.Intn(len(shapes))]
		m := seqRig(t, sh.parts)
		sq, err := NewSequencer(m, &policyLog{}, sh.kind, m.Instances("count"), sh.pi, 0)
		if err != nil {
			t.Fatal(err)
		}
		var trace []string
		var bag []Event
		dones, succeeded := 0, false
		take := func(actions []Action) {
			for _, a := range actions {
				trace = append(trace, show(a))
				if dones > 0 {
					t.Fatalf("run %d: %s after done; trace %q", i, show(a), trace)
				}
				if a.Kind == Done {
					dones++
					succeeded = a.Err == nil
				}
				ev, ok := report(t, m, a)
				if !ok {
					continue
				}
				switch r := rng.Intn(12); {
				case r == 0:
					ev.Err = errors.New("injected")
					ev.Insts = ev.Insts[:rng.Intn(len(ev.Insts)+1)]
				case r == 1:
					bag = append(bag, ev) // a duplicate
				case r == 2:
					bag = append(bag, Event{Kind: EventKind(rng.Intn(4))}) // a stale report
				}
				bag = append(bag, ev)
			}
		}
		take(sq.Start())
		for len(bag) > 0 {
			j := rng.Intn(len(bag))
			ev := bag[j]
			bag = append(bag[:j], bag[j+1:]...)
			if rng.Intn(50) == 0 {
				ev = Event{Kind: Failed + EventKind(rng.Intn(2)), Err: errors.New("injected")}
			}
			take(sq.Step(ev))
		}
		if dones != 1 {
			t.Fatalf("run %d (%s): %d dones; trace %q", i, sh.kind, dones, trace)
		}
		if got := len(m.Records()); got != map[bool]int{true: 1}[succeeded] {
			t.Fatalf("run %d (%s): %d records, succeeded %v; trace %q", i, sh.kind, got, succeeded, trace)
		}
	}
}
