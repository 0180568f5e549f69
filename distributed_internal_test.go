package seep

import (
	"strings"
	"testing"
	"time"
)

// TestDistributedSourceHostErrorsNameTheCause: a source no in-process
// engine hosts fails InjectBatch and AddSource with the real cause —
// its in-process worker was killed, its placement was dropped when the
// worker was declared down, or its worker is outside this process —
// and OperatorOf answers nil for each.
func TestDistributedSourceHostErrorsNameTheCause(t *testing.T) {
	topo := NewTopology().
		Source("src").
		Stateless("split", func() Operator { return WordSplitter() }).
		Stateful("count", func() Operator { return NewWordCounter(0) }).
		Sink("sink")
	// The detection delay keeps the killed worker's placement published
	// well past the first check below.
	job, err := Distributed(WithWorkers(3), WithDetectDelay(time.Second)).Deploy(topo)
	if err != nil {
		t.Fatal(err)
	}
	job.Start()
	defer job.Stop()
	j := job.(*distJob)
	gen := func(i uint64) (Key, any) { return KeyOfString("w"), "w" }
	src := InstanceID{Op: "src", Part: 1}
	if err := j.InjectBatch("src", 10, gen); err != nil {
		t.Fatal(err)
	}
	host := j.co().PlacementOf(src)

	// A worker outside this process: the same coordinator with no
	// in-process workers.
	ext := &distJob{coord: j.co()}
	if err := ext.InjectBatch("src", 1, gen); err == nil || !strings.Contains(err.Error(), "external worker "+host) {
		t.Errorf("InjectBatch through an external host = %v, want it to name external worker %s", err, host)
	}

	for _, w := range j.workers {
		if w.Addr() == host {
			w.Kill()
		}
	}
	if err := j.InjectBatch("src", 1, gen); err == nil || !strings.Contains(err.Error(), "in-process worker "+host+", which was killed") {
		t.Errorf("InjectBatch after its host was killed = %v, want it to name the killed worker %s", err, host)
	}
	if op := j.OperatorOf(src); op != nil {
		t.Errorf("OperatorOf(%s) on a killed worker = %v, want nil", src, op)
	}
	deadline := time.Now().Add(5 * time.Second)
	for j.co().PlacementOf(src) != "" {
		if time.Now().After(deadline) {
			t.Fatalf("the coordinator still places %s on %s after its worker was killed", src, host)
		}
		time.Sleep(10 * time.Millisecond)
	}
	err = j.AddSource("src", func(int64) float64 { return 1 }, gen)
	if err == nil || !strings.Contains(err.Error(), "no placement") || !strings.Contains(err.Error(), "declared down") {
		t.Errorf("AddSource once the host was declared down = %v, want a no-placement error", err)
	}
}
