package engine

import (
	"fmt"
	"testing"
	"time"

	"seep/internal/control"
	"seep/internal/operator"
	"seep/internal/plan"
	"seep/internal/state"
	"seep/internal/stream"
	"seep/internal/wordcount"
)

// slowCounter wraps a WordCounter with a fixed wall-clock cost per tuple
// so a live node has a real capacity limit.
type slowCounter struct {
	*operator.WordCounter
	delay time.Duration
}

func (s *slowCounter) OnTuple(ctx operator.Context, t stream.Tuple, emit operator.Emitter) {
	time.Sleep(s.delay)
	s.WordCounter.OnTuple(ctx, t, emit)
}

func TestEnginePolicyScalesOutUnderBackpressure(t *testing.T) {
	const delay = 2 * time.Millisecond
	opts := wordcount.Options{WindowMillis: 0}
	q := wordcount.Query(opts)
	factories := map[plan.OpID]operator.Factory{
		"split": func() operator.Operator { return operator.WordSplitter() },
		"count": func() operator.Operator {
			return &slowCounter{WordCounter: operator.NewWordCounter(0), delay: delay}
		},
	}
	e, err := New(Config{
		CheckpointInterval: 100 * time.Millisecond,
		QueueBound:         256, // small queue so backpressure is visible
	}, q, factories)
	if err != nil {
		t.Fatal(err)
	}
	// ~500 tuples/s capacity per counter; feed 1200/s.
	if err := e.AddSource(inst("src", 1), 1200, wordGen(40)); err != nil {
		t.Fatal(err)
	}
	e.EnablePolicy(control.Policy{
		Threshold:          0.5,
		ConsecutiveReports: 2,
		ReportEveryMillis:  150,
	}, nil)
	e.Start()
	defer e.Stop()

	deadline := time.Now().Add(8 * time.Second)
	for time.Now().Before(deadline) {
		if e.Manager().Parallelism("count") >= 2 {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if got := e.Manager().Parallelism("count"); got < 2 {
		t.Fatalf("parallelism = %d; policy did not scale out under backpressure", got)
	}
	// The query still produces results afterwards. A counter's output
	// reaches the sink once per input batch, so the first sign of
	// progress can be a batch time away (BatchSize tuples at delay each),
	// behind a batch in hand, the queued ones and a replay: wait ten
	// batch times before calling it stuck.
	before := e.SinkCount.Value()
	wait := 10 * time.Duration(e.cfg.BatchSize) * delay
	for deadline := time.Now().Add(wait); e.SinkCount.Value() <= before; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("no progress in %v after policy-driven scale out", wait)
		}
	}
}

func TestUtilReports(t *testing.T) {
	e := wordEngine(t, Config{})
	got := e.UtilReports()
	if len(got) != 2 {
		t.Fatalf("reports = %v, want one each for split and count", got)
	}
	for _, r := range got {
		if r.Inst.Op == "src" || r.Inst.Op == "sink" || r.Util != 0 {
			t.Errorf("idle engine reported %+v", r)
		}
	}
	// A node whose operator is shut and whose input is full reports 1:
	// every slot is queued or in hand, the unbuffered channel included.
	for _, slots := range []int{1, 16} {
		t.Run(fmt.Sprintf("saturated/%d slots", slots), func(t *testing.T) {
			g := &gate{tokens: make(chan struct{})}
			q, factories := gatedQuery(g)
			e, err := New(Config{BatchSize: 1, QueueBound: slots}, q, factories)
			if err != nil {
				t.Fatal(err)
			}
			e.Start()
			defer e.Stop()
			defer close(g.tokens)
			cnt := inst("cnt", 1)
			go func() {
				for ts := int64(1); ts <= int64(slots)+1; ts++ {
					e.DeliverLocal(state.Batch{From: inst("src", 1), To: cnt, Tuples: []stream.Tuple{{TS: ts, Key: 1}}})
				}
			}()
			util := func() float64 {
				for _, r := range e.UtilReports() {
					if r.Inst == cnt {
						return r.Util
					}
				}
				t.Fatal("no report for cnt")
				return 0
			}
			for deadline := time.Now().Add(5 * time.Second); util() < 1; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("util = %v with the input full, want 1", util())
				}
			}
			time.Sleep(20 * time.Millisecond)
			if u := util(); u != 1 {
				t.Errorf("util = %v with the input full, want 1", u)
			}
		})
	}
}
