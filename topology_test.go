package seep_test

import (
	"strings"
	"testing"

	"seep"
)

func splitFactory() seep.Operator { return seep.WordSplitter() }
func countFactory() seep.Operator { return seep.NewWordCounter(0) }

// TestTopologyBuildValidation drives the declarative surface through
// every class of construction mistake Build must reject.
func TestTopologyBuildValidation(t *testing.T) {
	cases := []struct {
		name  string
		build func() *seep.Topology
		// wantErr is a substring of the expected Build error; "" means
		// Build must succeed.
		wantErr string
	}{
		{
			name: "valid linear chain",
			build: func() *seep.Topology {
				return seep.NewTopology().
					Source("src").
					Stateless("split", splitFactory).
					Stateful("count", countFactory).
					Sink("sink")
			},
		},
		{
			name: "valid diamond with explicit connects",
			build: func() *seep.Topology {
				return seep.NewTopology().
					Source("src").
					Stateless("left", splitFactory).
					Stateless("right", splitFactory).
					Sink("sink").
					Connect("src", "left").
					Connect("src", "right").
					Connect("left", "sink").
					Connect("right", "sink")
			},
		},
		{
			name: "dangling edge to undeclared operator",
			build: func() *seep.Topology {
				return seep.NewTopology().
					Source("src").
					Stateless("split", splitFactory).
					Sink("sink").
					Connect("src", "split").
					Connect("split", "ghost").
					Connect("split", "sink")
			},
			wantErr: `"ghost" is not declared`,
		},
		{
			name: "duplicate operator ID",
			build: func() *seep.Topology {
				return seep.NewTopology().
					Source("src").
					Stateless("split", splitFactory).
					Stateless("split", splitFactory).
					Sink("sink")
			},
			wantErr: "duplicate",
		},
		{
			name: "empty operator ID",
			build: func() *seep.Topology {
				return seep.NewTopology().
					Source("src").
					Stateless("", splitFactory).
					Sink("sink")
			},
			wantErr: "empty ID",
		},
		{
			name: "cycle",
			build: func() *seep.Topology {
				return seep.NewTopology().
					Source("src").
					Stateless("a", splitFactory).
					Stateless("b", splitFactory).
					Sink("sink").
					Connect("src", "a").
					Connect("a", "b").
					Connect("b", "a").
					Connect("b", "sink")
			},
			wantErr: "cycle",
		},
		{
			name: "nil factory for stateful operator",
			build: func() *seep.Topology {
				return seep.NewTopology().
					Source("src").
					Stateful("count", nil).
					Sink("sink")
			},
			wantErr: "nil factory",
		},
		{
			// State the system cannot see would be lost on the first
			// recovery; the error names the operator.
			name: "stateful operator that is not Managed",
			build: func() *seep.Topology {
				return seep.NewTopology().
					Source("src").
					Stateful("tally", splitFactory).
					Sink("sink")
			},
			wantErr: `operator "tally": declared Stateful but its factory does not build a Managed operator`,
		},
		{
			name:    "empty topology",
			build:   func() *seep.Topology { return seep.NewTopology() },
			wantErr: "empty",
		},
		{
			name: "operator unreachable from sources",
			build: func() *seep.Topology {
				return seep.NewTopology().
					Source("src").
					Stateless("used", splitFactory).
					Stateless("lost", splitFactory).
					Sink("sink").
					Connect("src", "used").
					Connect("used", "sink")
			},
			wantErr: "no inputs",
		},
		{
			name: "no sink",
			build: func() *seep.Topology {
				return seep.NewTopology().
					Source("src").
					Stateless("split", splitFactory).
					Connect("src", "split")
			},
			wantErr: "no outputs",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			topo, err := c.build().Build()
			if c.wantErr == "" {
				if err != nil {
					t.Fatalf("Build() = %v, want success", err)
				}
				if topo.Query() == nil {
					t.Fatal("built topology has no query")
				}
				return
			}
			if err == nil {
				t.Fatalf("Build() succeeded, want error mentioning %q", c.wantErr)
			}
			if !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("Build() error %q does not mention %q", err, c.wantErr)
			}
		})
	}
}

// TestTopologyBuildJoinsAllErrors: one Build reports every mistake, not
// just the first.
func TestTopologyBuildJoinsAllErrors(t *testing.T) {
	_, err := seep.NewTopology().
		Source("src").
		Stateful("count", nil).
		Stateful("count", countFactory).
		Stateful("tally", splitFactory).
		Sink("sink").
		Build()
	if err == nil {
		t.Fatal("Build() succeeded")
	}
	for _, want := range []string{"nil factory", "duplicate", `"tally": declared Stateful`} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("Build() error %q does not mention %q", err, want)
		}
	}
}

// TestTopologyLinearChainStreams: implicit chaining connects declaration
// order exactly.
func TestTopologyLinearChainStreams(t *testing.T) {
	topo, err := seep.NewTopology().
		Source("src").
		Stateless("split", splitFactory).
		Stateful("count", countFactory).
		Sink("sink").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	q := topo.Query()
	wantEdges := [][2]seep.OpID{{"src", "split"}, {"split", "count"}, {"count", "sink"}}
	streams := q.Streams()
	if len(streams) != len(wantEdges) {
		t.Fatalf("streams = %v", streams)
	}
	for i, e := range wantEdges {
		if streams[i].From != e[0] || streams[i].To != e[1] {
			t.Errorf("stream %d = %v, want %v -> %v", i, streams[i], e[0], e[1])
		}
	}
	if got := topo.Factories(); len(got) != 2 || got["split"] == nil || got["count"] == nil {
		t.Errorf("Factories() = %v", got)
	}
}

// TestTopologyBuildIdempotent: Build on a built topology returns the
// same instance without error.
func TestTopologyBuildIdempotent(t *testing.T) {
	topo := seep.NewTopology().
		Source("src").
		Stateless("split", splitFactory).
		Sink("sink")
	built, err := topo.Build()
	if err != nil {
		t.Fatal(err)
	}
	again, err := built.Build()
	if err != nil || again != built {
		t.Fatalf("second Build() = (%p, %v), want (%p, nil)", again, err, built)
	}
}

// TestTopologyRejectsDeclarationsAfterBuild: mutating a built topology
// is an error on the next Build/Deploy, never a silent no-op.
func TestTopologyRejectsDeclarationsAfterBuild(t *testing.T) {
	topo, err := seep.NewTopology().
		Source("src").
		Stateless("split", splitFactory).
		Sink("sink").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	topo.Connect("split", "audit")
	if _, err := topo.Build(); err == nil || !strings.Contains(err.Error(), "already built") {
		t.Errorf("Build() after post-build Connect = %v, want 'already built' error", err)
	}
	if _, err := seep.Live().Deploy(topo); err == nil {
		t.Error("Deploy accepted a topology mutated after Build")
	}
}
