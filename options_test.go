package seep

import (
	"testing"
	"time"
)

// TestUniversalOptions is the runtime half of the option/substrate
// matrix check (the static half is seep-lint's optmatrix analyzer): an
// option listed in universalOptions must not register a substrate
// restriction when applied.
func TestUniversalOptions(t *testing.T) {
	samples := map[string]Option{
		"WithBatching":               WithBatching(8, time.Millisecond),
		"WithCheckpointInterval":     WithCheckpointInterval(time.Second),
		"WithDetectDelay":            WithDetectDelay(time.Second),
		"WithIncrementalCheckpoints": WithIncrementalCheckpoints(),
		"WithPolicy":                 WithPolicy(DefaultPolicy()),
		"WithRecoveryParallelism":    WithRecoveryParallelism(2),
		"WithScaleIn":                WithScaleIn(ScaleInPolicy{LowWatermark: 0.1}),
		"WithSeed":                   WithSeed(1),
		"WithTimerInterval":          WithTimerInterval(time.Second),
	}
	for _, name := range universalOptions {
		opt, ok := samples[name]
		if !ok {
			t.Errorf("universalOptions lists %s but this test has no sample for it; add one", name)
			continue
		}
		cfg := &runtimeConfig{}
		opt(cfg)
		if len(cfg.restricted) != 0 {
			t.Errorf("%s is listed in universalOptions but registered restriction %+v", name, cfg.restricted)
		}
	}
	if len(samples) != len(universalOptions) {
		t.Errorf("samples (%d) and universalOptions (%d) disagree; keep them in lockstep", len(samples), len(universalOptions))
	}
}
