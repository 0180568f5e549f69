package scenario

import (
	"reflect"
	"testing"

	"seep"
)

// TestScenarioCorpus runs every committed scenario on every substrate
// it declares — the same sweep CI's chaos-matrix job performs. External
// scenarios need running seep-worker daemons and are validate-only
// here. `go test -short` keeps just the simulator leg.
func TestScenarioCorpus(t *testing.T) {
	corpus, err := LoadDir("../../scenarios")
	if err != nil {
		t.Fatal(err)
	}
	if len(corpus) < 12 {
		t.Fatalf("scenario corpus has %d files, want at least 12", len(corpus))
	}
	for _, s := range corpus {
		if errs := Validate(s); len(errs) > 0 {
			t.Errorf("%s: invalid: %v", s.Name, errs)
			continue
		}
		if s.External {
			continue
		}
		for _, sub := range s.Substrates {
			if sub != "sim" && testing.Short() {
				continue
			}
			// Sequential on purpose: the Distributed legs share the
			// process-global transport fault table and heartbeat timers,
			// and parallel wall-clock scenarios skew each other's
			// failure-detection windows under -race.
			t.Run(s.Name+"/"+sub, func(t *testing.T) {
				res, err := Run(s, RunConfig{Substrate: sub})
				if err != nil {
					t.Fatal(err)
				}
				for _, f := range res.Failures {
					t.Error(f)
				}
			})
		}
	}
}

// TestScenarioParityKillRecoverScale is the cross-substrate parity
// check: the canonical kill-recover-scale scenario must yield the exact
// same per-key counts on Simulated, Live and Distributed. The workload
// is a pure function of the seed, so any divergence is a substrate
// losing or duplicating tuples across the kill/recover/scale script.
func TestScenarioParityKillRecoverScale(t *testing.T) {
	if testing.Short() {
		t.Skip("live and dist legs need wall-clock time")
	}
	s, err := LoadFile("../../scenarios/kill-recover-scale.yaml")
	if err != nil {
		t.Fatal(err)
	}
	counts := make(map[string]map[string]int64, 3)
	// books is what each substrate's query manager recorded, without the
	// clocks and replay sizes that legitimately differ.
	type transition struct {
		victim         seep.InstanceID
		pi             int
		failure, merge bool
	}
	books := make(map[string][]transition, 3)
	for _, sub := range []string{"sim", "live", "dist"} {
		res, err := Run(s, RunConfig{Substrate: sub})
		if err != nil {
			t.Fatalf("[%s] %v", sub, err)
		}
		for _, f := range res.Failures {
			t.Errorf("[%s] %s", sub, f)
		}
		if len(res.Counts) == 0 {
			t.Fatalf("[%s] no counts read back", sub)
		}
		counts[sub] = res.Counts
		for _, r := range res.Metrics.Recoveries {
			books[sub] = append(books[sub], transition{r.Victim, r.Pi, r.Failure, r.Merge})
		}
	}
	if t.Failed() {
		return
	}
	for _, sub := range []string{"live", "dist"} {
		if !reflect.DeepEqual(counts["sim"], counts[sub]) {
			t.Errorf("per-key counts diverge between sim and %s:\n  sim:  %v\n  %s: %v",
				sub, counts["sim"], sub, counts[sub])
		}
		if !reflect.DeepEqual(books["sim"], books[sub]) || len(books[sub]) == 0 {
			t.Errorf("transition records diverge between sim and %s:\n  sim:  %+v\n  %s: %+v",
				sub, books["sim"], sub, books[sub])
		}
	}
}

// TestScenarioDeltaCheckpointParity kills a worker mid-stream on the
// Distributed substrate twice — once shipping delta checkpoints over
// the wire, once shipping only full snapshots — and asserts the exact
// per-key counts match. The workload is a pure function of the seed, so
// equality means folding dirty-key fragments into the coordinator's
// backup store recovers the same state a full checkpoint would.
func TestScenarioDeltaCheckpointParity(t *testing.T) {
	if testing.Short() {
		t.Skip("dist legs need wall-clock time")
	}
	counts := make(map[bool]map[string]int64, 2)
	for _, delta := range []bool{true, false} {
		s, err := LoadFile("../../scenarios/kill-recover-scale.yaml")
		if err != nil {
			t.Fatal(err)
		}
		s.Options.DeltaCheckpoints = delta
		res, err := Run(s, RunConfig{Substrate: "dist"})
		if err != nil {
			t.Fatalf("[delta=%v] %v", delta, err)
		}
		for _, f := range res.Failures {
			t.Errorf("[delta=%v] %s", delta, f)
		}
		if len(res.Counts) == 0 {
			t.Fatalf("[delta=%v] no counts read back", delta)
		}
		counts[delta] = res.Counts
	}
	if t.Failed() {
		return
	}
	if !reflect.DeepEqual(counts[true], counts[false]) {
		t.Errorf("per-key counts diverge between delta and full checkpoint runs:\n  delta: %v\n  full:  %v",
			counts[true], counts[false])
	}
}
