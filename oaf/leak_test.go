package oaf_test

import (
	"runtime"
	"testing"
	"time"

	"nvmeoaf/oaf"
)

// settledGoroutines returns runtime.NumGoroutine once it is at most want,
// or after a second: a goroutine that has just ended may still be counted
// for a moment. It may also end below want, when a goroutine of an earlier
// test was still exiting as want was taken, so callers check only for an
// excess.
func settledGoroutines(want int) int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(time.Second); n > want && time.Now().Before(deadline); {
		runtime.Gosched()
		n = runtime.NumGoroutine()
	}
	return n
}

// TestClusterCloseLeavesNoGoroutines runs a shared-memory and a TCP
// connection, leaves both open so their handlers stay parked when Run
// returns, and checks that Close unwinds every one of them.
func TestClusterCloseLeavesNoGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	c := oaf.NewCluster(oaf.Config{Seed: 1})
	for _, h := range []string{"hostA", "hostB"} {
		if err := c.AddHost(h); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.AddTarget("hostA", "nqn.leak", oaf.TargetConfig{SSDCapacity: 64 << 20}); err != nil {
		t.Fatal(err)
	}
	err := c.Run(func(ctx *oaf.Ctx) error {
		for _, h := range []string{"hostA", "hostB"} {
			q, err := ctx.On(h).Connect("nqn.leak", oaf.ConnectOptions{})
			if err != nil {
				return err
			}
			if _, err := q.ReadModeled(0, 4096); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := runtime.NumGoroutine(); n <= base {
		t.Fatalf("%d goroutines after Run, want more than %d: no process was left parked", n, base)
	}
	c.Close()
	c.Close()
	if n := settledGoroutines(base); n > base {
		t.Errorf("%d goroutines after Close, want at most %d", n, base)
	}
}
