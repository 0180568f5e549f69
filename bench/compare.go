package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// compareMain implements `seep-perf compare A.json B.json`: A is the
// parent's set of runs, B the change's (both written with -out). It
// prints one row per workload and end-to-end metric and exits non-zero
// when any row is worse or unresolved.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: seep-perf compare A.json B.json")
		return 2
	}
	a, err := loadSets(args[0])
	if err == nil {
		var b map[string]*runs
		if b, err = loadSets(args[1]); err == nil {
			if compareSets(os.Stdout, a, b) {
				return 0
			}
			return 1
		}
	}
	fmt.Fprintf(os.Stderr, "seep-perf compare: %v\n", err)
	return 2
}

// runs is what one side's runs of one workload measured, in run order.
// A run that failed a check or did not finish is left out of values (its
// numbers are partial) and shows in failed, which every run enters.
type runs struct {
	values map[string][]float64 // end-to-end metric → one value per clean run
	failed []float64            // failed_share of each run
}

// loadSets reads a -out file into one runs per workload.
func loadSets(path string) (map[string]*runs, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var sets []runSet
	if err := json.Unmarshal(data, &sets); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := map[string]*runs{}
	for _, set := range sets {
		for _, o := range set.Outcomes {
			r := out[o.Workload]
			if r == nil {
				r = &runs{values: map[string][]float64{}}
				out[o.Workload] = r
			}
			r.failed = append(r.failed, o.failedShare())
			if !o.Done || o.Failed > 0 {
				continue
			}
			for name, m := range o.EndToEnd {
				r.values[name] = append(r.values[name], m.Value)
			}
		}
	}
	return out, nil
}

// minPairs is how many alternating pairs the guide asks for before a
// gain may be claimed.
const minPairs = 10

// verdict compares the runs of one metric on one workload: a are the
// parent's values, b the change's, paired by position.
//
//   - unresolved: either side's inter-quartile distance is wider than the
//     bound, so a regression of that size could hide in the noise (a
//     metric with an absolute floor, setup_s, is exempt, as it is from the
//     driver's spread check: its changes are judged against the floor);
//   - worse: the change's median is worse than the parent's by more than
//     the bound (and by more than the metric's absolute floor);
//   - better: at least ten pairs, the change wins nine tenths of them
//     (ties count for neither), and the medians are further apart than
//     the parent's own inter-quartile distance;
//   - same: none of the above.
func verdict(d e2eDef, a, b []float64) string {
	if len(a) == 0 || len(b) == 0 {
		return "unresolved"
	}
	medA, medB := median(a), median(b)
	if d.floor == 0 && (spread(a) > d.bound || spread(b) > d.bound) {
		return "unresolved"
	}
	gain := medA - medB // positive when b is better, for lower-is-better
	if d.higher {
		gain = -gain
	}
	if -gain > d.bound*math.Abs(medA) && -gain > d.floor {
		return "worse"
	}
	pairs := min(len(a), len(b))
	if pairs >= minPairs && gain > 0 {
		wins, losses := 0, 0
		for i := 0; i < pairs; i++ {
			switch {
			case a[i] == b[i]:
			case (b[i] < a[i]) != d.higher:
				wins++
			default:
				losses++
			}
		}
		q1, q3 := quartiles(a)
		if float64(wins) >= 0.9*float64(wins+losses) && wins > 0 && gain > q3-q1 {
			return "better"
		}
	}
	return "same"
}

// spread is the inter-quartile distance as a share of the median — the
// run-to-run noise the driver holds against a metric's bound.
func spread(xs []float64) float64 {
	m := median(xs)
	if len(xs) < 2 || m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(m)
}

// failedVerdict compares the two sides' failed_share, each the mean over
// its runs: a change that fails more than the parent, beyond the slack,
// is worse, and nothing makes failing less a gain.
func failedVerdict(a, b []float64) string {
	if len(a) == 0 || len(b) == 0 {
		return "unresolved"
	}
	if mean(b) > mean(a)+failedShareSlack {
		return "worse"
	}
	return "same"
}

// compareSets prints the table and reports whether every row is better
// or same.
func compareSets(w io.Writer, a, b map[string]*runs) bool {
	ok := true
	judge := func(v string) string {
		if v == "worse" || v == "unresolved" {
			ok = false
		}
		return v
	}
	fmt.Fprintf(w, "%-17s %-24s %13s %13s %8s %8s %8s %6s  %s\n",
		"workload", "metric", "median A", "median B", "change", "iqr A", "iqr B", "bound", "verdict")
	for _, s := range specs {
		ra, rb := a[s.name], b[s.name]
		if ra == nil && rb == nil {
			continue
		}
		if ra == nil {
			ra = &runs{}
		}
		if rb == nil {
			rb = &runs{}
		}
		for _, d := range endToEnd {
			if d.only != "" && d.only != s.name {
				continue
			}
			va, vb := ra.values[d.name], rb.values[d.name]
			medA, medB := median(va), median(vb)
			change := 0.0
			if medA != 0 {
				change = (medB - medA) / math.Abs(medA)
			}
			fmt.Fprintf(w, "%-17s %-24s %13s %13s %+7.1f%% %7.1f%% %7.1f%% %6.2f  %s (n=%d,%d)\n",
				s.name, d.name, formatValue(medA), formatValue(medB), 100*change,
				100*spread(va), 100*spread(vb), d.bound, judge(verdict(d, va, vb)), len(va), len(vb))
		}
		fmt.Fprintf(w, "%-17s %-24s %13s %13s %53s  %s (n=%d,%d)\n",
			s.name, "failed_share (mean)", formatValue(mean(ra.failed)), formatValue(mean(rb.failed)),
			fmt.Sprintf("+%g", failedShareSlack), judge(failedVerdict(ra.failed, rb.failed)), len(ra.failed), len(rb.failed))
	}
	return ok
}
