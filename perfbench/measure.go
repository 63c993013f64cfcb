package main

import (
	"fmt"
	"math/bits"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"nvmeoaf/internal/exp"
	"nvmeoaf/internal/stats"
	"nvmeoaf/internal/telemetry"
)

// record is what one child process reports about its one exp.Run, as a
// JSON line on standard output.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Mode     string `json:"mode"`

	// Host cost of exp.Run: wall clock, the CPU time the hypervisor
	// stole from all of the machine's CPUs meanwhile, process user+sys
	// CPU, heap allocations, peak resident set, and live heap after the
	// run.
	WallNs        int64   `json:"wall_ns"`
	StealNs       int64   `json:"steal_ns"`
	CPUs          int     `json:"cpus"`
	CPUNs         int64   `json:"cpu_ns"`
	Mallocs       uint64  `json:"mallocs"`
	AllocBytes    uint64  `json:"alloc_bytes"`
	PeakRSSMiB    float64 `json:"peak_rss_mib"`
	HeapRetainMiB float64 `json:"heap_retained_mib"`

	Sim    simMetrics         `json:"sim"`
	Layers map[string]float64 `json:"layers,omitempty"`
	Checks []check            `json:"checks"`
}

// simMetrics are the model's outputs: virtual-time results that repeat
// exactly for a seed.
type simMetrics struct {
	// Ops is the I/Os completed inside the measured window; Completed and
	// Failed cover the whole run (warm-up, window and drain).
	Ops       int64   `json:"ops"`
	Completed int64   `json:"completed"`
	Failed    int64   `json:"failed"`
	IOPS      float64 `json:"iops"`
	GBps      float64 `json:"gbps"`
	P50Us     float64 `json:"p50_us"`
	P999Us    float64 `json:"p999_us"`
	Samples   int64   `json:"samples"`
}

// check is one output check of a run.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
}

// hostSample is the process and machine state read before and after
// exp.Run.
type hostSample struct {
	wall    time.Time
	cpu     time.Duration
	steal   int64 // machine-wide steal time, in USER_HZ ticks
	ncpu    int
	mallocs uint64
	bytes   uint64
}

func readHost() hostSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	steal, ncpu := machineSteal()
	return hostSample{wall: time.Now(), cpu: processCPU(), steal: steal, ncpu: ncpu, mallocs: ms.Mallocs, bytes: ms.TotalAlloc}
}

// userHz is the unit of /proc/stat times on every Linux architecture
// Go supports.
const userHz = 100

// machineSteal reads the steal time of all CPUs together from
// /proc/stat (time a hypervisor ran something else while this machine's
// CPUs had work) and the number of CPUs. It returns zeros where there is
// no such file, which reads as no steal.
func machineSteal() (ticks int64, ncpu int) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		f := strings.Fields(line)
		switch {
		case len(f) > 8 && f[0] == "cpu":
			ticks, _ = strconv.ParseInt(f[8], 10, 64)
		case len(f) > 0 && strings.HasPrefix(f[0], "cpu"):
			ncpu++
		}
	}
	return ticks, ncpu
}

// processCPU is the user+sys CPU time the process has used on all cores.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB is the process's peak resident set (Linux reports KiB).
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// retainedHeapMiB is the live heap after a full collection: what the
// process still holds once every reference the caller kept is dropped.
func retainedHeapMiB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// fill sets the host-cost fields from samples taken around exp.Run.
func (r *record) fill(before, after hostSample) {
	r.WallNs = after.wall.Sub(before.wall).Nanoseconds()
	r.StealNs = (after.steal - before.steal) * (1e9 / userHz)
	r.CPUs = after.ncpu
	r.CPUNs = (after.cpu - before.cpu).Nanoseconds()
	r.Mallocs = after.mallocs - before.mallocs
	r.AllocBytes = after.bytes - before.bytes
	r.PeakRSSMiB = peakRSSMiB()
}

// simOf extracts the model's outputs from a result.
func simOf(res *exp.Result) simMetrics {
	agg := res.Agg
	m := simMetrics{
		Ops:     agg.Throughput.Ops,
		Failed:  agg.Errors,
		IOPS:    agg.Throughput.IOPS(),
		GBps:    agg.Throughput.GBps(),
		P50Us:   quantileUs(agg.Latency, 0.5),
		P999Us:  quantileUs(agg.Latency, 0.999),
		Samples: agg.Latency.Count(),
	}
	if res.Cluster != nil {
		m.Completed = res.Cluster.Reads + res.Cluster.Writes
	} else {
		// Every session host's successful I/O completions.
		tel := res.Telemetry
		m.Completed = tel.Histogram(telemetry.HistReadLatency).Count() + tel.Histogram(telemetry.HistWriteLatency).Count()
	}
	return m
}

// quantileUs estimates the q-quantile of h in microseconds. The
// simulator's histogram keeps log-linear buckets (64 per power of two)
// and reports a bucket's upper edge, so a percentile moves in steps of
// up to 1/64 of its value. This recovers the sample ranks that fall in
// the quantile's bucket by querying h at single ranks, then interpolates
// linearly across the bucket, the usual estimate for a bucketed
// histogram.
func quantileUs(h *stats.Histogram, q float64) float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	at := func(rank int64) int64 { return h.Quantile((float64(rank) + 0.5) / float64(n)) }
	target := int64(q * float64(n))
	if target >= n {
		target = n - 1
	}
	v := at(target)
	if v < 64 {
		return float64(v) / 1e3 // unit-width buckets are exact
	}
	// First and last ranks whose bucket is v's.
	lo, hi := int64(0), target
	for lo < hi {
		mid := (lo + hi) / 2
		if at(mid) >= v {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	first := lo
	lo, hi = target, n-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if at(mid) <= v {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	last := lo
	mag := bits.Len64(uint64(v)) - 7
	low := float64(v >> uint(mag) << uint(mag))
	if m := float64(h.Min()); m > low {
		low = m
	}
	frac := (float64(target-first) + 0.5) / float64(last-first+1)
	return (low + (float64(v)-low)*frac) / 1e3
}

// checks runs the output checks one result allows. A set-up run's
// window is too short to complete an I/O, so only its accounting is
// checked.
func checks(res *exp.Result, sm simMetrics, setup bool) []check {
	var out []check
	add := func(name string, ok bool, format string, args ...any) {
		out = append(out, check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
	}
	if !setup {
		add("window_has_ios", sm.Ops > 0 && sm.Samples == sm.Ops, "%d I/Os in the window, %d latency samples", sm.Ops, sm.Samples)
	}
	for _, sh := range []struct {
		label string
		err   error
		used  bool
	}{
		{"host", res.HostQoS.Conservation().Check(), res.HostQoS != nil},
		{"target", res.TargetQoS.Conservation().Check(), res.TargetQoS != nil},
	} {
		if sh.used {
			add("qos_conservation_"+sh.label, sh.err == nil, "%v", errText(sh.err))
		}
	}
	for i, p := range res.Pools {
		add(fmt.Sprintf("pool_%d_drained", i), p.InUse == 0, "%s in_use=%d gets=%d puts=%d", p.Name, p.InUse, p.Gets, p.Puts)
	}
	tel := res.Telemetry
	if res.Cluster == nil {
		// Every I/O a stream submits reaches a session host once, so the
		// hosts' submissions must equal their completions plus the
		// streams' failures.
		sub := tel.Histogram(telemetry.HistIOSize).Count()
		add("ios_conserved", sub == sm.Completed+sm.Failed, "submitted %d, completed %d, failed %d", sub, sm.Completed, sm.Failed)
		for _, name := range tel.TenantNames() {
			tv := tel.Tenant(name)
			s, c := tv.Counter(telemetry.TCtrSubmits), tv.Counter(telemetry.TCtrCompletions)
			add("ios_conserved_"+name, sm.Failed > 0 || s == c, "tenant %s submitted %d, completed %d", name, s, c)
		}
	} else {
		// The router does not count submissions; its completions and the
		// stream's failures must at least cover the measured window.
		add("ios_conserved", sm.Completed+sm.Failed >= sm.Ops,
			"router completed %d, failed %d, window %d", sm.Completed, sm.Failed, sm.Ops)
	}
	if s, r := tel.Counter(telemetry.CtrRingSubmits), tel.Counter(telemetry.CtrRingReaps); s > 0 {
		add("ring_conserved", s == r, "ring submitted %d, reaped %d", s, r)
	}
	return out
}

func errText(err error) string {
	if err == nil {
		return "ok"
	}
	return err.Error()
}
