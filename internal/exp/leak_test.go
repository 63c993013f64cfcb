package exp

import (
	"runtime"
	"testing"
	"time"

	"nvmeoaf/internal/core"
	"nvmeoaf/internal/h5bench"
	"nvmeoaf/internal/perf"
)

// checkNoGoroutinesLeft fails the test when runtime.NumGoroutine stays
// above base: what ran since base was taken left a goroutine behind. A
// goroutine that has just ended may still be counted for a moment, so it
// waits up to a second. The count may also be below base, when a
// goroutine of an earlier test was still exiting as base was taken.
func checkNoGoroutinesLeft(t *testing.T, name string, base int) {
	t.Helper()
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(time.Second); n > base && time.Now().Before(deadline); {
		runtime.Gosched()
		n = runtime.NumGoroutine()
	}
	if n > base {
		t.Errorf("%s: %d goroutines after the run, want at most %d", name, n, base)
	}
}

// TestRunLeavesNoGoroutines checks that Run closes its engine: a
// single-target run and a cluster run each leave no parked process
// goroutine behind.
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
		checkNoGoroutinesLeft(t, name, base)
	}
}

// TestH5RunsLeaveNoGoroutines checks that the h5bench runs close their
// engines: RunH5 on each backend, and RunH5Scale with a mix of
// shared-memory and TCP kernels (its write and read engines).
func TestH5RunsLeaveNoGoroutines(t *testing.T) {
	kernel := h5bench.Config{Datasets: 2, Particles: 64 << 10, ElemSize: 8}
	for _, b := range []H5Backend{H5OAF, H5OAFCoalesce, H5TCP, H5NFS} {
		base := runtime.NumGoroutine()
		if _, err := RunH5(H5Config{Backend: b, Kernel: kernel, Seed: 1}); err != nil {
			t.Fatalf("%s: %v", b, err)
		}
		checkNoGoroutinesLeft(t, string(b), base)
	}
	base := runtime.NumGoroutine()
	if _, _, err := RunH5Scale(Case2, 2, 3); err != nil {
		t.Fatal(err)
	}
	checkNoGoroutinesLeft(t, "scale", base)
}
