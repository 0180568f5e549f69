// Command seep-scenario runs declarative chaos scenarios (YAML files)
// against any seep substrate. One scenario file — topology, seeded
// workload, timed event script, assertions — runs unchanged on the
// Simulated, Live and Distributed runtimes, which is the paper's
// central claim exercised as a test format.
//
// Usage:
//
//	seep-scenario run [-substrate=sim|live|dist|all] [-seed N] <file|dir>...
//	seep-scenario validate <file|dir>...
//	seep-scenario list <file|dir>...
//
// The run subcommand executes each scenario on every declared substrate
// matching -substrate and exits non-zero on any assertion miss,
// printing the scenario name and seed so the run can be replayed. For
// external scenarios (`external: true`), pass -workers with a
// comma-separated list of running seep-worker addresses.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"seep/internal/scenario"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	switch cmd {
	case "run":
		os.Exit(runCmd(args))
	case "validate", "-validate":
		os.Exit(validateCmd(args))
	case "list", "-list":
		os.Exit(listCmd(args))
	case "help", "-h", "--help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "seep-scenario: unknown command %q\n", cmd)
		usage()
		os.Exit(2)
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage:
  seep-scenario run [-substrate=sim|live|dist|all] [-seed N] [-workers addrs] [-topology name] [-v] <file|dir>...
  seep-scenario validate <file|dir>...
  seep-scenario list <file|dir>...
`)
}

// load expands files and directories into scenarios.
func load(paths []string) ([]*scenario.Scenario, error) {
	if len(paths) == 0 {
		paths = []string{"scenarios"}
	}
	var out []*scenario.Scenario
	for _, p := range paths {
		info, err := os.Stat(p)
		if err != nil {
			return nil, err
		}
		if info.IsDir() {
			ss, err := scenario.LoadDir(p)
			if err != nil {
				return nil, err
			}
			out = append(out, ss...)
			continue
		}
		s, err := scenario.LoadFile(p)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

func runCmd(args []string) int {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	substrate := fs.String("substrate", "all", "substrate to run on: sim, live, dist or all (every declared)")
	seed := fs.Int64("seed", 0, "override the scenario seed (0 = use the file's)")
	workers := fs.String("workers", "", "comma-separated external seep-worker addresses (external scenarios)")
	topology := fs.String("topology", "", "registry topology name for external workers")
	verbose := fs.Bool("v", false, "print event-by-event progress")
	fs.Parse(args)

	scenarios, err := load(fs.Args())
	if err != nil {
		fmt.Fprintf(os.Stderr, "seep-scenario: %v\n", err)
		return 2
	}
	ran, failed := 0, 0
	for _, s := range scenarios {
		if errs := scenario.Validate(s); len(errs) > 0 {
			for _, e := range errs {
				fmt.Fprintf(os.Stderr, "INVALID %s: %v\n", s.Name, e)
			}
			failed++
			continue
		}
		for _, sub := range s.Substrates {
			if *substrate != "all" && sub != *substrate {
				continue
			}
			cfg := scenario.RunConfig{Substrate: sub, Seed: *seed, TopologyName: *topology}
			if *workers != "" {
				cfg.WorkerAddrs = strings.Split(*workers, ",")
			}
			if s.External && len(cfg.WorkerAddrs) == 0 {
				fmt.Printf("SKIP %s [%s]: external scenario needs -workers\n", s.Name, sub)
				continue
			}
			if *verbose {
				cfg.Logf = func(format string, a ...any) {
					fmt.Fprintf(os.Stderr, format+"\n", a...)
				}
			}
			res, err := scenario.Run(s, cfg)
			ran++
			if err != nil {
				fmt.Fprintf(os.Stderr, "ERROR %s [%s]: %v\n", s.Name, sub, err)
				failed++
				continue
			}
			if res.OK() {
				fmt.Printf("PASS %s [substrate %s, seed %d] sink=%d recoveries=%d merges=%d\n",
					res.Scenario, res.Substrate, res.Seed,
					res.Metrics.SinkTuples, len(res.Metrics.Recoveries), res.Metrics.Merges)
				echoControlPlane(res)
				continue
			}
			failed++
			fmt.Printf("FAIL %s [substrate %s, seed %d]\n", res.Scenario, res.Substrate, res.Seed)
			echoControlPlane(res)
			for _, f := range res.Failures {
				fmt.Printf("  %s\n", f)
			}
		}
	}
	fmt.Printf("%d run, %d failed\n", ran, failed)
	if failed > 0 {
		return 1
	}
	return 0
}

// echoControlPlane prints the Distributed coordinator's journal and
// failover numbers under a scenario verdict — silent for runs without a
// durable control plane, one glanceable line for failover scenarios.
func echoControlPlane(res *scenario.Result) {
	cp := res.Metrics.ControlPlane
	if cp.JournalAppends == 0 && cp.ReplayRecords == 0 {
		return
	}
	fmt.Printf("  control-plane: appends=%d bytes=%d fsync-max=%dµs replay=%d recs/%dms reattached=%d failover=%dms\n",
		cp.JournalAppends, cp.JournalBytes, cp.FsyncMaxMicros,
		cp.ReplayRecords, cp.ReplayMillis, cp.Reattached, cp.FailoverMillis)
}

func validateCmd(args []string) int {
	fs := flag.NewFlagSet("validate", flag.ExitOnError)
	fs.Parse(args)
	scenarios, err := load(fs.Args())
	if err != nil {
		fmt.Fprintf(os.Stderr, "seep-scenario: %v\n", err)
		return 2
	}
	bad := 0
	for _, s := range scenarios {
		errs := scenario.Validate(s)
		if len(errs) == 0 {
			fmt.Printf("OK   %s\n", s.Name)
			continue
		}
		bad++
		fmt.Printf("FAIL %s\n", s.Name)
		for _, e := range errs {
			fmt.Printf("  %v\n", e)
		}
	}
	if bad > 0 {
		return 1
	}
	return 0
}

func listCmd(args []string) int {
	fs := flag.NewFlagSet("list", flag.ExitOnError)
	fs.Parse(args)
	scenarios, err := load(fs.Args())
	if err != nil {
		fmt.Fprintf(os.Stderr, "seep-scenario: %v\n", err)
		return 2
	}
	for _, s := range scenarios {
		kinds := make(map[string]bool)
		for _, ev := range s.Events {
			kinds[ev.Kind] = true
		}
		var ks []string
		for k := range kinds {
			ks = append(ks, k)
		}
		fmt.Printf("%-28s substrates=%v seed=%d events=%v\n      %s\n",
			s.Name, s.Substrates, s.Seed, strings.Join(sorted(ks), ","), s.Description)
	}
	return 0
}

func sorted(ss []string) []string {
	for i := 1; i < len(ss); i++ {
		for j := i; j > 0 && ss[j] < ss[j-1]; j-- {
			ss[j], ss[j-1] = ss[j-1], ss[j]
		}
	}
	return ss
}
