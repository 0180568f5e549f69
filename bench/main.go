// Command seep-perf is the repository's one performance benchmark: four
// workloads over the same src → map → cnt → sink job on the Live and
// the Distributed runtime, end-to-end metrics from an untraced run,
// per-layer metrics from a separate traced run, results checked against
// a reference computation. See README.md in this directory.
//
//	go run -C bench . -seed 1                  all four workloads
//	go run -C bench . -trace 1                 traced runs + layer probes
//	go run -C bench . compare A.json B.json    two sets of runs
//	bash bench/run.sh --workload steady-live --seed 1 --seconds 24 --trace 0
//
// The last form is what BENCHMARK.json names; it prints one JSON object
// as the last line of its output.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"time"
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	runs     int
	out      string
	workDir  string

	child  bool
	report string
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	var o options
	fs := flag.NewFlagSet("seep-perf", flag.ExitOnError)
	fs.StringVar(&o.workload, "workload", "", "run only this workload and end with the driver's one-line JSON result")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	fs.Float64Var(&o.seconds, "seconds", refSeconds, "length of the timed phases of one run")
	trace := fs.Int("trace", 0, "1: traced run (record spans, run the layer probes, report per-layer metrics)")
	fs.IntVar(&o.runs, "runs", 1, "repeat the set this many times, on seeds seed, seed+1, ...")
	fs.StringVar(&o.out, "out", "", "append every run's result to this JSON file (input of compare)")
	fs.StringVar(&o.workDir, "workdir", ".bench_build", "directory for journals, reports and trace files")
	fs.BoolVar(&o.child, "child", false, "internal: run one workload in this process")
	fs.StringVar(&o.report, "report", "", "internal: where the child writes its outcome")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	if *trace != 0 && *trace != 1 {
		fatalf("-trace must be 0 or 1")
	}
	o.trace = *trace == 1
	if o.seconds < 1 || o.seconds > 60 {
		fatalf("-seconds must be between 1 and 60")
	}
	if o.workload != "" && specByName(o.workload) == nil {
		fatalf("unknown workload %q", o.workload)
	}
	if err := os.MkdirAll(o.workDir, 0o755); err != nil {
		fatalf("%v", err)
	}
	if o.child {
		os.Exit(childMain(&o))
	}
	os.Exit(parentMain(&o))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "seep-perf: "+format+"\n", args...)
	os.Exit(2)
}

// childMain runs one workload in this process and leaves its outcome in
// the report file, rewritten after every phase.
func childMain(o *options) int {
	s := specByName(o.workload)
	save := func(out *outcome) {
		if err := writeJSON(o.report, out); err != nil {
			fmt.Fprintf(os.Stderr, "seep-perf: %v\n", err)
		}
	}
	var out *outcome
	var err error
	if o.trace {
		out, err = runTraced(s, o.seed, o.seconds, o.workDir, save)
	} else {
		out, err = run(s, o.seed, o.seconds, nil, o.workDir, save)
	}
	if err != nil {
		out.note("%v", err)
		out.Done = false
		save(out)
		fmt.Fprintf(os.Stderr, "seep-perf: %s: %v\n", s.name, err)
		return 1
	}
	save(out)
	return 0
}

func writeJSON(path string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// deadlineFor is the wall time a workload's child gets before the parent
// kills it: generous against the expected length, and short enough that
// the driver's 180 s limit on one invocation holds.
func deadlineFor(seconds float64) time.Duration {
	d := time.Duration((60 + 2.5*seconds) * float64(time.Second))
	if d > 170*time.Second {
		d = 170 * time.Second
	}
	return d
}

// supervise runs one workload in a child process under a wall deadline.
// The child may wedge inside InjectBatch or Stop; the parent then kills
// it and keeps the partial outcome, with every undelivered tuple failed.
func supervise(o *options, s *spec, seed int64) *outcome {
	exe, err := os.Executable()
	if err != nil {
		fatalf("%v", err)
	}
	report := filepath.Join(o.workDir, fmt.Sprintf("report-%s-%d.json", s.name, os.Getpid()))
	_ = os.Remove(report) // a stale report must not pass for this run's
	defer os.Remove(report)
	args := []string{"-child", "-report", report, "-workload", s.name,
		"-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(o.seconds), "-workdir", o.workDir}
	if o.trace {
		args = append(args, "-trace", "1")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stdout = os.Stderr // the child's chatter must not follow the parent's last line
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		fatalf("start %s: %v", s.name, err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	deadline := deadlineFor(o.seconds)
	timer := time.NewTimer(deadline)
	defer timer.Stop()
	var killed bool
	select {
	case <-done:
	case <-timer.C:
		killed = true
		_ = cmd.Process.Kill() // the error case is "already exited"
		<-done
	}

	out := &outcome{Workload: s.name, Seed: seed, Seconds: o.seconds,
		EndToEnd: map[string]metric{}, Detail: map[string]metric{}, Layers: map[string]metric{}}
	if data, err := os.ReadFile(report); err == nil {
		if err := json.Unmarshal(data, out); err != nil {
			out.note("unreadable report: %v", err)
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		out.note("%v", err)
	}
	if killed {
		out.Done = false
		out.note("killed at the %v wall deadline", deadline)
	}
	if !out.Done {
		// Whatever was sent and had not arrived at the last save is lost.
		out.Attempted = max(out.Attempted, 1)
		out.Failed = max(out.Failed, out.Attempted-out.Arrived, 1)
	}
	return out
}

// runSet is one pass over the chosen workloads; file is what -out keeps.
type runSet struct {
	Seed     int64      `json:"seed"`
	Seconds  float64    `json:"seconds"`
	Outcomes []*outcome `json:"workloads"`
}

func parentMain(o *options) int {
	chosen := specs
	if o.workload != "" {
		chosen = []*spec{specByName(o.workload)}
	}
	var sets []runSet
	if o.out != "" {
		if data, err := os.ReadFile(o.out); err == nil {
			if err := json.Unmarshal(data, &sets); err != nil {
				fatalf("%s: %v", o.out, err)
			}
		}
	}
	failed := false
	var last *outcome
	for r := 0; r < o.runs; r++ {
		set := runSet{Seed: o.seed + int64(r), Seconds: o.seconds}
		for _, s := range chosen {
			out := supervise(o, s, set.Seed)
			printOutcome(os.Stdout, out)
			if o.trace && out.Done {
				reconciliation(os.Stdout, out, s.dist)
			}
			if out.Failed > 0 || !out.Done {
				failed = true
			}
			set.Outcomes = append(set.Outcomes, out)
			last = out
		}
		sets = append(sets, set)
		if o.out != "" {
			if err := writeJSON(o.out, sets); err != nil {
				fatalf("%v", err)
			}
		}
	}
	if o.workload != "" {
		// The driver wants no result line from a run that broke.
		if !last.Done || !printDriverLine(last, o.trace) {
			return 1
		}
	}
	if failed {
		return 1
	}
	return 0
}

// printDriverLine ends the output with the one JSON object the driver
// reads: every end-to-end metric of BENCHMARK.json's list of an untraced
// run, every per-layer metric of a traced one. It reports false, and
// prints nothing, when the run lacks an end-to-end metric.
func printDriverLine(out *outcome, traced bool) bool {
	metrics := map[string]metric{}
	if traced {
		// A layer a workload does not use (dist.* on Live) reads 0.
		for _, d := range perLayer {
			metrics[d.name] = metric{out.Layers[d.name].Value, d.unit}
		}
	} else {
		for _, d := range endToEnd {
			if d.layer != "" {
				continue
			}
			m, ok := out.EndToEnd[d.name]
			if !ok {
				fmt.Fprintf(os.Stderr, "seep-perf: %s measured no %s\n", out.Workload, d.name)
				return false
			}
			metrics[d.name] = m
		}
	}
	line := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{out.Failed == 0, out.Attempted, out.Failed, metrics}
	data, err := json.Marshal(line)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Printf("\n%s\n", data)
	return true
}
