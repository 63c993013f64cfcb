package main

import (
	"bytes"
	"math"
	"math/rand"
	"runtime/pprof"
	"testing"
	"time"

	"nvmeoaf/internal/stats"
)

// TestQuantileInterpolation checks the interpolated percentile against
// the exact sample quantile: it must stay inside the histogram's bucket
// error (1/64) and, unlike the bucket edge, move when samples move
// within a bucket.
func TestQuantileInterpolation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var samples []int64
	h := stats.NewHistogram()
	for i := 0; i < 40000; i++ {
		v := int64(800_000 + rng.ExpFloat64()*200_000)
		samples = append(samples, v)
		h.Record(v)
	}
	for _, q := range []float64{0.5, 0.99, 0.999} {
		exact := float64(stats.Exact(samples, q)) / 1e3
		got := quantileUs(h, q)
		if math.Abs(got-exact)/exact > 1.0/64 {
			t.Errorf("q=%v: interpolated %.3f us, exact %.3f us", q, got, exact)
		}
	}
	shifted := stats.NewHistogram()
	for _, v := range samples {
		shifted.Record(v + 2_000) // well inside one bucket's width
	}
	if quantileUs(shifted, 0.5) <= quantileUs(h, 0.5) {
		t.Error("interpolated median did not move with the samples")
	}
	if got := quantileUs(stats.NewHistogram(), 0.5); got != 0 {
		t.Errorf("empty histogram: %v, want 0", got)
	}
}

// TestCPUSharesAttributesProfile profiles a busy loop in this package
// and checks that the parser finds its samples and that the shares of
// all layers add up to one.
func TestCPUSharesAttributesProfile(t *testing.T) {
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	x := 0
	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x += i * i
		}
	}
	pprof.StopCPUProfile()
	_ = x
	shares, err := cpuShares(prof.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, l := range append(cpuLayers, "other") {
		sum += shares[l+".cpu_share"]
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("layer shares sum to %v, want 1", sum)
	}
	if shares["other.cpu_share"] < 0.5 {
		t.Errorf("a loop outside internal/ got other.cpu_share %v", shares["other.cpu_share"])
	}
}

func TestRuntimeBucket(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.pcvalue", "runtime.(*unwinder).next", "runtime.copystack", "runtime.newstack", "runtime.morestack", "nvmeoaf/internal/sim.(*Proc).park"}, "stack_growth"},
		{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "runtime.newobject", "nvmeoaf/internal/sim.NewFuture"}, "alloc_gc"},
		{[]string{"runtime.futex", "runtime.futexwakeup", "runtime.notewakeup", "runtime.startm", "runtime.wakep", "runtime.ready", "runtime.goready", "runtime.chansend"}, "sched"},
		{[]string{"nvmeoaf/internal/sim.(*Engine).RunUntil", "runtime.mallocgc"}, ""},
	} {
		if got := runtimeBucket(c.stack); got != c.want {
			t.Errorf("%v: bucket %q, want %q", c.stack[0], got, c.want)
		}
	}
}
