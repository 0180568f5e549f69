package scenario

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// A minimal valid scenario to mutate in the lint tests.
const validScenario = `
name: valid
substrates: [sim]
seed: 1
duration: 3s
topology:
  ops:
    - {id: src, kind: source}
    - {id: split, kind: word-splitter}
    - {id: count, kind: word-counter}
    - {id: sink, kind: sink}
workload:
  source: src
  tuples: 100
  keys: 5
events:
  - {at: 1s, kind: kill-worker, op: count}
assertions:
  exact-counts: {op: count}
`

func TestParseValidScenario(t *testing.T) {
	s, err := Parse(validScenario)
	if err != nil {
		t.Fatal(err)
	}
	if errs := Validate(s); len(errs) != 0 {
		t.Fatalf("valid scenario flagged: %v", errs)
	}
	if s.Name != "valid" || s.Seed != 1 || s.Duration != 3*time.Second {
		t.Errorf("decoded header = %q/%d/%v", s.Name, s.Seed, s.Duration)
	}
	if len(s.Ops) != 4 || s.Ops[2].Kind != "word-counter" {
		t.Errorf("decoded ops = %+v", s.Ops)
	}
	if s.Workload == nil || s.Workload.Tuples != 100 || s.Workload.KeyPrefix != "w" {
		t.Errorf("decoded workload = %+v", s.Workload)
	}
	if len(s.Events) != 1 || s.Events[0].At != time.Second {
		t.Errorf("decoded events = %+v", s.Events)
	}
}

// Every lint rule surfaces as a typed SchemaError naming its location —
// one table entry per error kind the ISSUE requires, plus the rest of
// the lint pass.
func TestValidateTypedErrors(t *testing.T) {
	cases := []struct {
		name     string
		mutate   func(*Scenario)
		wantKind ErrorKind
		wantPath string
	}{
		{
			name:     "unknown event kind",
			mutate:   func(s *Scenario) { s.Events[0].Kind = "explode-vm" },
			wantKind: ErrUnknownEventKind,
			wantPath: "events[0].kind",
		},
		{
			name: "assertion on undeclared sink",
			mutate: func(s *Scenario) {
				s.Assertions.SinkLatency = &SinkLatencyAssert{Sink: "count", Max: time.Second}
			},
			wantKind: ErrUndeclaredSink,
			wantPath: "assertions.sink-latency.sink",
		},
		{
			name:     "event after scenario end",
			mutate:   func(s *Scenario) { s.Events[0].At = 10 * time.Second },
			wantKind: ErrEventAfterEnd,
			wantPath: "events[0].at",
		},
		{
			name:     "event on undeclared operator",
			mutate:   func(s *Scenario) { s.Events[0].Op = "ghost" },
			wantKind: ErrUnknownOp,
			wantPath: "events[0].op",
		},
		{
			name:     "unknown factory kind",
			mutate:   func(s *Scenario) { s.Ops[1].Kind = "quantum-splitter" },
			wantKind: ErrUnknownFactory,
			wantPath: "topology.ops[1].kind",
		},
		{
			name: "partition-link outside Distributed",
			mutate: func(s *Scenario) {
				s.Events[0] = Event{At: time.Second, Kind: "partition-link", Op: "count"}
			},
			wantKind: ErrSubstrateRestricted,
			wantPath: "events[0].kind",
		},
		{
			name: "slow-link on the simulator",
			mutate: func(s *Scenario) {
				s.Events[0] = Event{At: time.Second, Kind: "slow-link", Op: "count", Delay: time.Millisecond}
			},
			wantKind: ErrSubstrateRestricted,
			wantPath: "events[0].kind",
		},
		{
			name:     "missing name",
			mutate:   func(s *Scenario) { s.Name = "" },
			wantKind: ErrMissingField,
			wantPath: "name",
		},
		{
			name:     "unknown substrate",
			mutate:   func(s *Scenario) { s.Substrates = []string{"cloud"} },
			wantKind: ErrBadValue,
			wantPath: "substrates[0]",
		},
		{
			name:     "workload source not a source",
			mutate:   func(s *Scenario) { s.Workload.Source = "count" },
			wantKind: ErrUnknownOp,
			wantPath: "workload.source",
		},
		{
			name:     "exact-counts on undeclared op",
			mutate:   func(s *Scenario) { s.Assertions.ExactCounts.Op = "ghost" },
			wantKind: ErrUnknownOp,
			wantPath: "assertions.exact-counts.op",
		},
		{
			name:     "unknown counter name",
			mutate:   func(s *Scenario) { s.Assertions.Counters = []CounterAssert{{Name: "cpu-cycles", Max: -1}} },
			wantKind: ErrBadValue,
			wantPath: "assertions.counters[0].name",
		},
		{
			name:     "negative duration",
			mutate:   func(s *Scenario) { s.Duration = 0 },
			wantKind: ErrBadValue,
			wantPath: "duration",
		},
		{
			name:     "scale-out pi below 2",
			mutate:   func(s *Scenario) { s.Events[0] = Event{At: time.Second, Kind: "scale-out", Op: "count", Pi: 1} },
			wantKind: ErrBadValue,
			wantPath: "events[0].pi",
		},
		{
			name: "max-latency ceiling not positive",
			mutate: func(s *Scenario) {
				s.Assertions.MaxLatency = &MaxLatencyAssert{Sink: "sink", Ceiling: 0}
			},
			wantKind: ErrBadBound,
			wantPath: "assertions.max-latency.ceiling",
		},
		{
			name: "sink-latency max looser than the hard ceiling",
			mutate: func(s *Scenario) {
				s.Assertions.MaxLatency = &MaxLatencyAssert{Sink: "sink", Ceiling: time.Second}
				s.Assertions.SinkLatency = &SinkLatencyAssert{Sink: "sink", Max: 2 * time.Second}
			},
			wantKind: ErrBadBound,
			wantPath: "assertions.sink-latency.max",
		},
		{
			name: "sink-latency p99 above the hard ceiling",
			mutate: func(s *Scenario) {
				s.Assertions.MaxLatency = &MaxLatencyAssert{Sink: "sink", Ceiling: time.Second}
				s.Assertions.SinkLatency = &SinkLatencyAssert{Sink: "sink", P99: 3 * time.Second}
			},
			wantKind: ErrBadBound,
			wantPath: "assertions.sink-latency.p99",
		},
		{
			name: "max-latency on undeclared sink",
			mutate: func(s *Scenario) {
				s.Assertions.MaxLatency = &MaxLatencyAssert{Sink: "count", Ceiling: time.Second}
			},
			wantKind: ErrUndeclaredSink,
			wantPath: "assertions.max-latency.sink",
		},
		{
			name: "kill-coordinator on the simulator",
			mutate: func(s *Scenario) {
				s.Events[0] = Event{At: time.Second, Kind: "kill-coordinator"}
				s.Events = append(s.Events, Event{At: 2 * time.Second, Kind: "restart-coordinator"})
			},
			wantKind: ErrSubstrateRestricted,
			wantPath: "events[0].kind",
		},
		{
			name: "restart-coordinator without a prior kill",
			mutate: func(s *Scenario) {
				s.Substrates = []string{"dist"}
				s.Events[0] = Event{At: time.Second, Kind: "restart-coordinator"}
			},
			wantKind: ErrBadValue,
			wantPath: "events[0].kind",
		},
		{
			name: "script ends with the coordinator dead",
			mutate: func(s *Scenario) {
				s.Substrates = []string{"dist"}
				s.Events[0] = Event{At: time.Second, Kind: "kill-coordinator"}
			},
			wantKind: ErrBadValue,
			wantPath: "events",
		},
		{
			name: "external scenario with workload",
			mutate: func(s *Scenario) {
				s.External = true
				s.Substrates = []string{"dist"}
				s.Assertions.ExactCounts = nil
			},
			wantKind: ErrBadValue,
			wantPath: "workload",
		},
		{
			name:     "negative sustained-overload",
			mutate:   func(s *Scenario) { s.Workload.SustainedOverload = -1 },
			wantKind: ErrBadValue,
			wantPath: "workload.sustained-overload",
		},
		{
			name:     "negative queue-bound",
			mutate:   func(s *Scenario) { s.Options.QueueBound = -8 },
			wantKind: ErrBadValue,
			wantPath: "options.queue-bound",
		},
		{
			name:     "negative memory limit",
			mutate:   func(s *Scenario) { s.Options.MemoryLimitBytes = -1 },
			wantKind: ErrBadValue,
			wantPath: "options.memory-limit-bytes",
		},
		{
			name: "queue-depth without a max",
			mutate: func(s *Scenario) {
				s.Substrates = []string{"live"}
				s.Assertions.QueueDepth = &QueueDepthAssert{Max: -1}
			},
			wantKind: ErrMissingField,
			wantPath: "assertions.queue-depth.max",
		},
		{
			name: "queue-depth bound not positive",
			mutate: func(s *Scenario) {
				s.Substrates = []string{"live"}
				s.Assertions.QueueDepth = &QueueDepthAssert{Max: 0}
			},
			wantKind: ErrBadBound,
			wantPath: "assertions.queue-depth.max",
		},
		{
			name: "queue-depth on the simulator",
			mutate: func(s *Scenario) {
				s.Assertions.QueueDepth = &QueueDepthAssert{Max: 8}
			},
			wantKind: ErrSubstrateRestricted,
			wantPath: "assertions.queue-depth",
		},
		{
			name: "spilled-keys max contradicts min",
			mutate: func(s *Scenario) {
				s.Substrates = []string{"live"}
				s.Options.MemoryLimitBytes = 1 << 20
				s.Assertions.SpilledKeys = &SpilledKeysAssert{Min: 100, Max: 10}
			},
			wantKind: ErrBadBound,
			wantPath: "assertions.spilled-keys.max",
		},
		{
			name: "spilled-keys minimum without a memory ceiling",
			mutate: func(s *Scenario) {
				s.Substrates = []string{"live"}
				s.Assertions.SpilledKeys = &SpilledKeysAssert{Min: 1, Max: -1}
			},
			wantKind: ErrBadValue,
			wantPath: "assertions.spilled-keys.min",
		},
		{
			name: "spilled-keys on the simulator",
			mutate: func(s *Scenario) {
				s.Options.MemoryLimitBytes = 1 << 20
				s.Assertions.SpilledKeys = &SpilledKeysAssert{Min: 1, Max: -1}
			},
			wantKind: ErrSubstrateRestricted,
			wantPath: "assertions.spilled-keys",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, err := Parse(validScenario)
			if err != nil {
				t.Fatal(err)
			}
			tc.mutate(s)
			errs := Validate(s)
			if len(errs) == 0 {
				t.Fatalf("mutation not flagged")
			}
			for _, e := range errs {
				se, ok := e.(*SchemaError)
				if !ok {
					t.Fatalf("untyped validation error %T: %v", e, e)
				}
				if se.Kind == tc.wantKind && se.Path == tc.wantPath {
					return
				}
			}
			t.Fatalf("no %s at %s among %v", tc.wantKind, tc.wantPath, errs)
		})
	}
}

// The backpressure fields decode end to end: options knobs, the
// sustained-overload workload knob, and both assertion blocks.
func TestParseBackpressureFields(t *testing.T) {
	s, err := Parse(`
name: bp
substrates: [live]
seed: 7
duration: 2s
topology:
  ops:
    - {id: src, kind: source}
    - {id: count, kind: word-counter}
    - {id: sink, kind: sink}
options:
  queue-bound: 512
  memory-limit-bytes: 65536
workload:
  source: src
  tuples: 100
  keys: 50
  sustained-overload: 2
assertions:
  queue-depth: {max: 12}
  spilled-keys: {min: 10, max: 40}
`)
	if err != nil {
		t.Fatal(err)
	}
	if errs := Validate(s); len(errs) != 0 {
		t.Fatalf("valid backpressure scenario flagged: %v", errs)
	}
	if s.Options.QueueBound != 512 || s.Options.MemoryLimitBytes != 65536 {
		t.Errorf("decoded options = %+v", s.Options)
	}
	if s.Workload.SustainedOverload != 2 {
		t.Errorf("decoded sustained-overload = %d, want 2", s.Workload.SustainedOverload)
	}
	if qd := s.Assertions.QueueDepth; qd == nil || qd.Max != 12 {
		t.Errorf("decoded queue-depth = %+v", qd)
	}
	if sk := s.Assertions.SpilledKeys; sk == nil || sk.Min != 10 || sk.Max != 40 {
		t.Errorf("decoded spilled-keys = %+v", sk)
	}
	// An absent spilled-keys max is unbounded, not zero.
	s2, err := Parse(`
name: bp2
substrates: [live]
seed: 7
duration: 2s
topology:
  ops:
    - {id: src, kind: source}
    - {id: sink, kind: sink}
options:
  memory-limit-bytes: 65536
workload:
  source: src
  tuples: 100
  keys: 50
assertions:
  spilled-keys: {min: 1}
`)
	if err != nil {
		t.Fatal(err)
	}
	if sk := s2.Assertions.SpilledKeys; sk == nil || sk.Max != -1 {
		t.Errorf("absent max decoded as %+v, want Max=-1", sk)
	}
}

// Unknown fields in the document are decode errors, not silent drops.
func TestParseRejectsUnknownField(t *testing.T) {
	src := strings.Replace(validScenario, "seed: 1", "seed: 1\nturbo: true", 1)
	_, err := Parse(src)
	if err == nil {
		t.Fatal("unknown field accepted")
	}
	se, ok := err.(*SchemaError)
	if !ok || se.Kind != ErrUnknownField {
		t.Fatalf("want ErrUnknownField, got %v", err)
	}
}

func TestYAMLSubset(t *testing.T) {
	v, err := parseYAML(`
a: 1            # comment
b: "x: y"       # quoted colon
c:
  - {k: v, n: 2}
  - plain
d:
  nested:
    deep: true
e: [1, 2.5, "s"]
f:
  - id: one
    extra: yes-string
  - id: two
`)
	if err != nil {
		t.Fatal(err)
	}
	m := v.(map[string]any)
	if m["a"] != int64(1) || m["b"] != "x: y" {
		t.Errorf("scalars: %#v", m)
	}
	c := m["c"].([]any)
	if c[0].(map[string]any)["n"] != int64(2) || c[1] != "plain" {
		t.Errorf("sequence: %#v", c)
	}
	if m["d"].(map[string]any)["nested"].(map[string]any)["deep"] != true {
		t.Errorf("nesting: %#v", m["d"])
	}
	e := m["e"].([]any)
	if e[0] != int64(1) || e[1] != 2.5 || e[2] != "s" {
		t.Errorf("flow seq: %#v", e)
	}
	f := m["f"].([]any)
	if f[0].(map[string]any)["extra"] != "yes-string" || f[1].(map[string]any)["id"] != "two" {
		t.Errorf("inline map items: %#v", f)
	}
}

func TestYAMLErrors(t *testing.T) {
	for _, src := range []string{
		"a: 1\n\tb: 2",     // tab indentation
		"a: &anchor",       // anchors outside the subset
		"a: [1, 2",         // unterminated flow
		"a: \"unclosed",    // unterminated quote
		"a: 1\na: 2",       // duplicate key
		"justastringalone", // no key
	} {
		if _, err := parseYAML(src); err == nil {
			t.Errorf("parseYAML(%q) accepted", src)
		}
	}
}

// The seeded workload is a pure function: same seed, same draw, and the
// oracle's total always matches the tuple count.
func TestWorkloadDeterminism(t *testing.T) {
	w := &Workload{Source: "src", Tuples: 1000, Keys: 10, KeyPrefix: "w", Skew: 1.2}
	a := w.expectedCounts(42, 1000)
	b := (&Workload{Source: "src", Tuples: 1000, Keys: 10, KeyPrefix: "w", Skew: 1.2}).expectedCounts(42, 1000)
	var total int64
	for k, v := range a {
		if b[k] != v {
			t.Errorf("draw diverged at %s: %d vs %d", k, v, b[k])
		}
		total += v
	}
	if total != 1000 {
		t.Errorf("oracle total = %d, want 1000", total)
	}
	// Skew concentrates mass on low-index words.
	if a["w00"] <= a["w09"] {
		t.Errorf("skew 1.2 but w00=%d <= w09=%d", a["w00"], a["w09"])
	}
	// A different seed draws a different workload.
	c := w.expectedCounts(43, 1000)
	same := true
	for k, v := range a {
		if c[k] != v {
			same = false
			break
		}
	}
	if same {
		t.Error("seeds 42 and 43 drew identical workloads")
	}
}

// The generator and the oracle agree — injecting gen output reproduces
// expectedCounts exactly, including across a burst boundary.
func TestGeneratorMatchesOracle(t *testing.T) {
	w := &Workload{Source: "src", Tuples: 300, Keys: 10, KeyPrefix: "w"}
	got := make(map[string]int64)
	gen := w.genFrom(7, 0)
	for i := uint64(0); i < 300; i++ {
		_, payload := gen(i)
		got[payload.(string)]++
	}
	burst := w.genFrom(7, 300)
	for i := uint64(0); i < 200; i++ {
		_, payload := burst(i)
		got[payload.(string)]++
	}
	want := w.expectedCounts(7, 500)
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s: generated %d, oracle %d", k, got[k], v)
		}
	}
}

// FuzzScenarioParse: the hand-rolled YAML parser never panics, whatever
// it is given, and neither does Validate on whatever Parse accepts. The
// seeds are every committed scenario, whole and cut in half.
func FuzzScenarioParse(f *testing.F) {
	paths, err := filepath.Glob("../../scenarios/*.yaml")
	if err != nil || len(paths) == 0 {
		f.Fatalf("no seed scenarios (%v)", err)
	}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(b))
		f.Add(string(b[:len(b)/2]))
	}
	f.Fuzz(func(t *testing.T, src string) {
		s, err := Parse(src)
		if err != nil {
			if s != nil {
				t.Fatalf("error %v with a scenario returned", err)
			}
			return
		}
		Validate(s)
	})
}
