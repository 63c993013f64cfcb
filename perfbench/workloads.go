package main

import (
	"fmt"
	"time"

	"nvmeoaf/internal/cache"
	"nvmeoaf/internal/core"
	"nvmeoaf/internal/exp"
	"nvmeoaf/internal/model"
	"nvmeoaf/internal/perf"
	"nvmeoaf/internal/qos"
)

// workload is one named benchmark input: an exp.Config built from the
// seed. Every workload is a closed loop (each stream keeps QueueDepth
// commands outstanding, as SPDK perf does) with no warm-up, so caches
// start empty and the measured window begins at the first submission.
type workload struct {
	name   string
	window time.Duration
	config func(seed int64) exp.Config
}

// setupWindow is the measured window of a set-up run: long enough to
// submit the first train, short enough that the run is all set-up and
// teardown.
const setupWindow = time.Microsecond

var workloads = []workload{
	{
		// Per-command host cost dominates: one 4 KiB random-read stream
		// at QD 128 through the SQ/CQ ring over NVMe/TCP. Bypasses cache,
		// shm, striping, cluster and qos (the control workload).
		name: "tcp-ring-4k", window: 400 * time.Millisecond,
		config: func(seed int64) exp.Config {
			tp := model.DefaultTCPTransport()
			tp.BatchSize = 16
			return exp.Config{
				Kind: exp.TCP25G, Seed: seed, TP: tp,
				Workload: perf.Workload{IOSize: 4096, ReadPct: 100, QueueDepth: 128, Ring: true},
			}
		},
	},
	{
		// The adaptive fabric's zero-copy shared-memory path, striped over
		// four queue pairs, in front of a write-back cache: a Zipf 0.99
		// hot set over a 2 GiB span (8x the 256 MiB cache), 70/30 r/w.
		name: "oaf-cache-zipf-rw", window: 120 * time.Millisecond,
		config: func(seed int64) exp.Config {
			tp := model.DefaultTCPTransport()
			tp.BatchSize = 16
			return exp.Config{
				Kind: exp.OAF, Design: core.DesignSHMZeroCopy, Seed: seed, TP: tp, Queues: 4,
				CacheBytes: 256 << 20, CacheMode: cache.WriteBack, SSDCapacity: 2 << 30,
				Workload: perf.Workload{IOSize: 4096, ReadPct: 70, Zipf: 0.99, QueueDepth: 64, Batch: 16},
			}
		},
	},
	{
		// A namespace sharded over four NVMe/TCP member targets, R=2,
		// W=majority, 4 KiB uniform random 70/30 through the cluster
		// router with the router's own command timeouts and retries.
		name: "tcp-cluster-rw", window: 310 * time.Millisecond,
		config: func(seed int64) exp.Config {
			return exp.Config{
				Kind: exp.TCP25G, Seed: seed,
				ClusterTargets: 4, ClusterReplicas: 2,
				Tenants:  []exp.TenantSpec{{Name: "solo"}},
				Workload: perf.Workload{IOSize: 4096, ReadPct: 70, QueueDepth: 64},
			}
		},
	},
	{
		// Four NVMe/RDMA streams alternating two tenants: latency-SLO
		// "polite" (unlimited) and throughput-SLO "greedy" (1500 MiB/s
		// host-side cap), 4K:64K:128K sizes at 6:3:1, 70/30 random.
		name: "rdma-tenants-mix", window: 320 * time.Millisecond,
		config: func(seed int64) exp.Config {
			return exp.Config{
				Kind: exp.RDMA56, Seed: seed, Streams: 4,
				Tenants: []exp.TenantSpec{
					{Name: "polite", SLO: qos.LatencySensitive},
					{Name: "greedy", SLO: qos.Throughput, RateMBps: 1500},
				},
				Workload: perf.Workload{
					ReadPct: 70, QueueDepth: 32, Batch: 8,
					SizeMix: []perf.SizeWeight{{Size: 4 << 10, Weight: 6}, {Size: 64 << 10, Weight: 3}, {Size: 128 << 10, Weight: 1}},
				},
			}
		},
	},
}

// lookup returns the named workload's config at a seed, with the
// measured window set (the set-up window when setup is true).
func lookup(name string, seed int64, setup bool) (exp.Config, error) {
	for _, w := range workloads {
		if w.name != name {
			continue
		}
		cfg := w.config(seed)
		cfg.Workload.Duration = w.window
		if setup {
			cfg.Workload.Duration = setupWindow
		}
		return cfg, nil
	}
	return exp.Config{}, fmt.Errorf("unknown workload %q", name)
}
