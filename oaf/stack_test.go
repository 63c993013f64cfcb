package oaf_test

import (
	"errors"
	"testing"
	"time"

	"nvmeoaf/internal/nvme"
	"nvmeoaf/oaf"
)

var allFabrics = []struct {
	name   string
	fabric oaf.Fabric
}{
	{"adaptive", oaf.FabricAdaptive},
	{"tcp-10g", oaf.FabricTCP10G},
	{"tcp-25g", oaf.FabricTCP25G},
	{"tcp-100g", oaf.FabricTCP100G},
	{"rdma-56g", oaf.FabricRDMA56G},
	{"roce-100g", oaf.FabricRoCE100G},
}

// TestCrashLosesDirtyOnEveryFabric: a write-back cached target that
// crashes with unflushed lines must fail the host's next flush with a
// typed write fault, whichever fabric serves the connection.
func TestCrashLosesDirtyOnEveryFabric(t *testing.T) {
	for _, f := range allFabrics {
		if f.fabric != oaf.FabricAdaptive && f.fabric != oaf.FabricTCP25G && f.fabric != oaf.FabricRDMA56G {
			continue
		}
		t.Run(f.name, func(t *testing.T) {
			c := oaf.NewCluster(oaf.Config{Seed: 5})
			t.Cleanup(c.Close)
			if err := c.AddHost("hostA"); err != nil {
				t.Fatal(err)
			}
			cfg := oaf.TargetConfig{SSDCapacity: 64 << 20, RetainData: true}.WithCache(16<<20, oaf.CacheWriteBack)
			if err := c.AddTarget("hostA", "nqn.wb", cfg); err != nil {
				t.Fatal(err)
			}
			err := c.Run(func(ctx *oaf.Ctx) error {
				q, err := ctx.Connect("nqn.wb", oaf.ConnectOptions{
					Fabric: f.fabric, QueueDepth: 16,
					CommandTimeout: 1500 * time.Microsecond, MaxRetries: 10, RetryBackoff: 200 * time.Microsecond,
				})
				if err != nil {
					return err
				}
				defer q.Close()
				payload := make([]byte, 4096)
				for i := 0; i < 16; i++ {
					if _, err := q.Write(int64(i)*4096, payload); err != nil {
						return err
					}
				}
				if st, _ := c.CacheStats("nqn.wb"); st.DirtyBytes == 0 {
					t.Fatal("no dirty lines to lose")
				}
				if err := c.ScheduleTargetCrash("nqn.wb", 50*time.Microsecond, 100*time.Microsecond); err != nil {
					return err
				}
				ctx.Sleep(200 * time.Microsecond)
				_, err = q.Flush()
				var se *nvme.StatusError
				if !errors.As(err, &se) || se.Status != nvme.StatusWriteFault {
					t.Errorf("flush after crash = %v, want write fault", err)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestQueueSnapshotCountsEveryFabric: every binding reports its
// completions through Queue.Snapshot and the cluster's telemetry sink,
// with the connection's Batch applied.
func TestQueueSnapshotCountsEveryFabric(t *testing.T) {
	for _, f := range allFabrics {
		t.Run(f.name, func(t *testing.T) {
			c := cluster(t)
			err := c.Run(func(ctx *oaf.Ctx) error {
				q, err := ctx.Connect("nqn.demo", oaf.ConnectOptions{Fabric: f.fabric, QueueDepth: 16, Batch: 8})
				if err != nil {
					return err
				}
				defer q.Close()
				var asyncs []*oaf.Async
				for i := 0; i < 64; i++ {
					asyncs = append(asyncs, q.ReadAsyncModeled(int64(i)*4096, 4096))
				}
				for _, a := range asyncs {
					if _, err := q.Wait(a); err != nil {
						return err
					}
				}
				snap := c.Snapshot()
				if got := snap.Queues[0].Completed; got != 64 {
					t.Errorf("queue snapshot completed = %d, want 64", got)
				}
				if got := snap.Telemetry.Counters["client.completions"]; got != 64 {
					t.Errorf("client.completions = %d, want 64", got)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}
