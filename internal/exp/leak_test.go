package exp

import (
	"runtime"
	"testing"
	"time"

	"nvmeoaf/internal/core"
	"nvmeoaf/internal/perf"
)

// TestRunLeavesNoGoroutines checks that Run closes its engine: a
// single-target run and a cluster run each leave runtime.NumGoroutine
// no higher than before the run, with no parked process goroutine
// behind. (It may be lower: a goroutine of an earlier test can still be
// exiting when the count is first taken.)
func TestRunLeavesNoGoroutines(t *testing.T) {
	w := perf.Workload{IOSize: 4096, ReadPct: 70, QueueDepth: 16, Duration: 2 * time.Millisecond}
	for name, cfg := range map[string]Config{
		"tcp":     {Kind: TCP25G, Seed: 1, Workload: w},
		"oaf":     {Kind: OAF, Design: core.DesignSHMZeroCopy, Seed: 1, Queues: 4, CacheBytes: 16 << 20, Workload: w},
		"cluster": {Kind: TCP25G, Seed: 1, ClusterTargets: 4, ClusterReplicas: 2, Workload: w},
	} {
		base := runtime.NumGoroutine()
		if _, err := Run(cfg); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// A goroutine that has acknowledged its exit may still be counted
		// for a moment.
		n := runtime.NumGoroutine()
		for deadline := time.Now().Add(time.Second); n > base && time.Now().Before(deadline); {
			runtime.Gosched()
			n = runtime.NumGoroutine()
		}
		if n > base {
			t.Errorf("%s: %d goroutines after Run, want at most %d", name, n, base)
		}
	}
}
