package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"nvmeoaf/internal/bdev"
	"nvmeoaf/internal/cache"
	"nvmeoaf/internal/cluster"
	"nvmeoaf/internal/exp"
	"nvmeoaf/internal/model"
	"nvmeoaf/internal/nvme"
	"nvmeoaf/internal/pdu"
	"nvmeoaf/internal/perf"
	"nvmeoaf/internal/qos"
	"nvmeoaf/internal/ring"
	"nvmeoaf/internal/sim"
	"nvmeoaf/internal/ssd"
	"nvmeoaf/internal/stats"
	"nvmeoaf/internal/telemetry"
	"nvmeoaf/internal/transport"
)

// runLayers derives the per-layer counts of one run from what exp.Run
// exposes: telemetry counters and histograms, cache, pool, cluster and
// QoS accounting. "Per I/O" divides by the I/Os completed in the
// measured window, as the end-to-end metrics do. A layer the workload
// bypasses reports 0.
func runLayers(cfg exp.Config, res *exp.Result, sm simMetrics) map[string]float64 {
	tel := res.Telemetry
	ops := float64(sm.Ops)
	ctr := func(c telemetry.Counter) float64 { return float64(tel.Counter(c)) }
	hist := func(h telemetry.Hist) *stats.Histogram { return tel.Histogram(h) }
	m := map[string]float64{
		"tcp.pdus_per_io":            (ctr(telemetry.CtrPDUsTx) + ctr(telemetry.CtrPDUsRx)) / ops,
		"session.submit_batch_mean":  hist(telemetry.HistBatchSize).Mean(),
		"session.reap_depth_mean":    hist(telemetry.HistReapDepth).Mean(),
		"session.retries_per_io":     ctr(telemetry.CtrRetries) / ops,
		"session.timeouts_per_io":    ctr(telemetry.CtrTimeouts) / ops,
		"ring.submit_depth_mean":     hist(telemetry.HistRingSubmitDepth).Mean(),
		"ring.reap_depth_mean":       hist(telemetry.HistRingReapDepth).Mean(),
		"ring.sq_full_stalls":        ctr(telemetry.CtrRingSQFull),
		"cache.wb_throttled":         ctr(telemetry.CtrCacheThrottled),
		"shm.claims_per_io":          ctr(telemetry.CtrSHMClaims) / ops,
		"shm.claim_stalls_per_io":    ctr(telemetry.CtrSHMFutexStalls) / ops,
		"server.buffer_waits_per_io": ctr(telemetry.CtrSrvBufWaits) / ops,
		"netsim.wire_bytes_per_io":   float64(res.WireBytes) / ops,
		"rdma.reg_misses_per_io":     ctr(telemetry.CtrRDMARegMisses) / ops,
		"perf.read_p999_us":          quantileUs(res.Agg.ReadLat, 0.999),
		"perf.write_p999_us":         quantileUs(res.Agg.WriteLat, 0.999),
	}

	var cs cache.Stats
	for _, s := range res.CacheStats {
		cs.Hits += s.Hits
		cs.Misses += s.Misses
		cs.Fills += s.Fills
		cs.Evictions += s.Evictions
		cs.Bypasses += s.Bypasses
		cs.WriteBacks += s.WriteBacks
		cs.DirtyBytes += s.DirtyBytes
	}
	m["cache.hit_ratio"] = cs.HitRate()
	m["cache.fills_per_io"] = float64(cs.Fills) / ops
	m["cache.evictions_per_io"] = float64(cs.Evictions) / ops
	m["cache.writebacks_per_io"] = float64(cs.WriteBacks) / ops
	// Unflushed write-back data at the end of the run: the flusher starts
	// only above a quarter of the dirty bound.
	m["cache.dirty_mib"] = float64(cs.DirtyBytes) / (1 << 20)
	m["cache.bypass_frac"] = 0
	if reads := cs.Hits + cs.Misses + cs.Bypasses; reads > 0 {
		m["cache.bypass_frac"] = float64(cs.Bypasses) / float64(reads)
	}

	// Pools are per connection, so their gets are the striped members'
	// data-path operations.
	m["mempool.peak_in_use_frac"] = 0
	m["transport.member_skew"] = 1
	var minGets, maxGets int64 = -1, 0
	for _, p := range res.Pools {
		if p.Cap > 0 {
			m["mempool.peak_in_use_frac"] = max(m["mempool.peak_in_use_frac"], float64(p.PeakInUse)/float64(p.Cap))
		}
		if minGets < 0 || p.Gets < minGets {
			minGets = p.Gets
		}
		maxGets = max(maxGets, p.Gets)
	}
	if minGets > 0 {
		m["transport.member_skew"] = float64(maxGets) / float64(minGets)
	}

	var cl cluster.Stats
	if res.Cluster != nil {
		cl = *res.Cluster
	}
	m["cluster.quorum_failures"] = float64(cl.QuorumFails)
	m["cluster.replica_downs"] = float64(cl.ReplicaDowns)
	m["cluster.read_failovers"] = float64(cl.ReadFailovers)
	m["cluster.degraded_ios"] = float64(cl.DegradedIOs)
	m["cluster.replica_writes_per_write"] = 0
	if w := ctr(telemetry.CtrReplWrites); w > 0 {
		m["cluster.replica_writes_per_write"] = ctr(telemetry.CtrReplReplicaWrites) / w
	}

	// QoS: a rate-limited tenant's I/O passes the host-side gate once
	// (admits) after failed TryTake re-checks (the bucket's throttles).
	var admits, throttles int64
	snap := tel.Snapshot()
	m["qos.token_wait_p99_us"] = 0
	for _, st := range res.HostQoS.Stats() {
		if st.RateBps <= 0 {
			continue
		}
		admits += tel.Tenant(st.Name).Counter(telemetry.TCtrSubmits)
		throttles += st.Throttles
		if h, ok := snap.Tenants[st.Name].Histograms[telemetry.THistTokenWait.String()]; ok {
			m["qos.token_wait_p99_us"] = max(m["qos.token_wait_p99_us"], h.P99Us)
		}
	}
	m["qos.admits_per_attempt"] = 0
	if admits+throttles > 0 {
		m["qos.admits_per_attempt"] = float64(admits) / float64(admits+throttles)
	}
	var borrowed, lent int64
	for _, st := range res.QoS {
		borrowed += st.Borrowed
		lent += st.Lent
	}
	m["qos.borrowed_bytes"], m["qos.lent_bytes"] = float64(borrowed), float64(lent)
	polite := stats.NewHistogram()
	for i, r := range res.PerStream {
		if cfg.TenantFor(i).SLO == qos.LatencySensitive {
			polite.Merge(r.Latency)
		}
	}
	m["qos.polite_p999_us"] = quantileUs(polite, 0.999)

	var util float64
	for _, d := range res.Devices {
		util += d.SSD().Utilization()
	}
	m["ssd.utilization"] = util / float64(max(len(res.Devices), 1))
	return m
}

// Timed layer drivers. Each drives one layer's public functions outside
// any workload, in reps spans of calls; a metric is the median span
// divided by the calls in it, so one slow span (a GC pause, a
// preemption) does not move it.
const reps = 9

// layerDrivers runs every driver and returns its metrics.
func layerDrivers(tr *tracer, seed int64) map[string]float64 {
	m := map[string]float64{}
	for _, d := range []func(*tracer, int64, map[string]float64){
		driveEngine, drivePDU, driveRing, driveCache, driveQoS, driveTelemetry, driveZipfSetup,
	} {
		d(tr, seed, m)
	}
	return m
}

// timed runs fn in one span and returns its wall time and allocations.
func timed(tr *tracer, name string, fn func()) (ns int64, allocs uint64) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	id := tr.start(name)
	fn()
	ns = tr.end(id)
	runtime.ReadMemStats(&m1)
	return ns, m1.Mallocs - m0.Mallocs
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// repeat times reps spans of fn, each doing calls operations, and
// returns the median ns and allocations per operation.
func repeat(tr *tracer, name string, calls int, fn func()) (nsPerOp, allocsPerOp float64) {
	var ns, allocs []float64
	for i := 0; i < reps; i++ {
		t, a := timed(tr, name, fn)
		ns = append(ns, float64(t)/float64(calls))
		allocs = append(allocs, float64(a)/float64(calls))
	}
	return median(ns), median(allocs)
}

// driveEngine measures a process handoff: two processes ping-pong over
// a pair of Signals, so every Fire schedules a wake-up event and every
// Wait parks its goroutine until the engine resumes it.
func driveEngine(tr *tracer, seed int64, m map[string]float64) {
	const rounds = 5000
	m["sim.handoff_ns"], m["sim.handoff_allocs"] = repeat(tr, "sim.engine_run", 2*rounds, func() {
		e := sim.NewEngine(seed)
		ping, pong := sim.NewSignal(e), sim.NewSignal(e)
		e.Go("ping", func(p *sim.Proc) {
			for i := 0; i < rounds; i++ {
				pong.Fire()
				ping.Wait(p)
				ping.Reset()
			}
		})
		e.Go("pong", func(p *sim.Proc) {
			for i := 0; i < rounds; i++ {
				pong.Wait(p)
				pong.Reset()
				ping.Fire()
			}
		})
		if err := e.Run(); err != nil {
			panic(err)
		}
	})
}

// drivePDU encodes and decodes a 16-command capsule train, the NVMe/TCP
// batch a ring doorbell sends.
func drivePDU(tr *tracer, _ int64, m map[string]float64) {
	const calls = 20000
	batch := &pdu.CmdBatch{Entries: make([]pdu.BatchEntry, 16)}
	for i := range batch.Entries {
		batch.Entries[i] = pdu.BatchEntry{Cmd: nvme.NewWrite(uint16(i+1), 1, uint64(i)*8, 8), VirtualLen: 4096}
	}
	buf := batch.Encode(nil)
	m["pdu.cmdbatch_encode_ns"], _ = repeat(tr, "pdu.encode", calls, func() {
		for i := 0; i < calls; i++ {
			buf = batch.Encode(buf[:0])
		}
	})
	wire := append([]byte(nil), buf...)
	m["pdu.cmdbatch_decode_ns"], m["pdu.cmdbatch_decode_allocs"] = repeat(tr, "pdu.decode", calls, func() {
		for i := 0; i < calls; i++ {
			p, _, err := pdu.Decode(wire)
			if err != nil || len(p.(*pdu.CmdBatch).Entries) != 16 {
				panic(fmt.Sprintf("cmdbatch decode: %v", err))
			}
		}
	})
}

// instantQueue completes every I/O at submission, so a ring driven over
// it costs only the ring's own work.
type instantQueue struct{ res transport.Result }

func (q *instantQueue) Submit(_ *sim.Proc, _ *transport.IO) *sim.Future[*transport.Result] {
	panic("instantQueue: the ring drives SubmitInto")
}

func (q *instantQueue) SubmitInto(_ *sim.Proc, _ *transport.IO, fut *sim.Future[*transport.Result]) {
	fut.Resolve(&q.res)
}

func (q *instantQueue) RingDoorbell(*sim.Proc) {}
func (q *instantQueue) Close()                 {}

// driveRing times one ring cycle: push 16 entries, submit them with one
// doorbell, reap 16 completions.
func driveRing(tr *tracer, seed int64, m map[string]float64) {
	const depth, cycles = 16, 2000
	e := sim.NewEngine(seed)
	r := ring.New(e, &instantQueue{}, ring.Config{SQSize: depth, Buffers: 1, BufSize: transport.BlockSize, Telemetry: telemetry.New()})
	e.Go("ring-driver", func(p *sim.Proc) {
		var cq [depth]ring.CQE
		cycle := func() {
			for i := 0; i < depth; i++ {
				r.Push(ring.SQE{Offset: int64(i) * transport.BlockSize, Size: transport.BlockSize, UserData: uint64(i)})
			}
			r.Submit(p)
			if n := r.Reap(p, cq[:], depth); n != depth {
				panic(fmt.Sprintf("ring reaped %d of %d", n, depth))
			}
		}
		cycle() // sizes every slot's recycled state
		m["ring.cycle_ns"], m["ring.cycle_allocs"] = repeat(tr, "ring.cycle", cycles, func() {
			for i := 0; i < cycles; i++ {
				cycle()
			}
		})
		r.Close()
	})
	if err := e.Run(); err != nil {
		panic(err)
	}
}

// tracedDevice records an "ssd.submit" span around each call into the
// backing device, so device spans nest under the cache span that made
// them.
type tracedDevice struct {
	bdev.Device
	tr *tracer
}

func (d tracedDevice) Submit(req *ssd.Request) *sim.Future[ssd.Result] {
	id := d.tr.start("ssd.submit")
	defer d.tr.end(id)
	return d.Device.Submit(req)
}

// driveCache times cache Submit calls over a wrapped simulated SSD:
// first reads of distinct 4 KiB lines (misses, which call the device)
// and then the same reads again (hits, which do not).
func driveCache(tr *tracer, seed int64, m map[string]float64) {
	const lines, lineSize = 4096, 4096
	e := sim.NewEngine(seed)
	dev := bdev.NewSimSSD(e, "bench-ssd", 1<<30, model.DefaultSSD(), false, transport.BlockSize)
	c := cache.New(e, tracedDevice{Device: dev, tr: tr}, cache.Config{Bytes: 64 << 20, Mode: cache.WriteBack})
	offsets := e.Rand("cache-driver").Perm(lines)
	e.Go("cache-driver", func(p *sim.Proc) {
		pass := func(name string) float64 {
			var ns []float64
			for _, o := range offsets {
				req := &ssd.Request{Op: ssd.OpRead, Offset: int64(o) * lineSize, Size: lineSize}
				id := tr.start(name)
				fut := c.Submit(req)
				ns = append(ns, float64(tr.end(id)))
				if r := fut.Wait(p); r.Err != nil {
					panic(r.Err)
				}
			}
			return median(ns)
		}
		m["cache.miss_ns"] = pass("cache.submit_miss")
		m["cache.hit_ns"] = pass("cache.submit_hit")
		if st := c.Stats(); st.Hits != lines || st.Misses != lines {
			panic(fmt.Sprintf("cache driver: %d hits, %d misses, want %d each", st.Hits, st.Misses, lines))
		}
	})
	if err := e.RunUntil(sim.Time(time.Second)); err != nil {
		panic(err)
	}
}

// driveQoS times TryTake on a 1500 MiB/s bucket offered 4 KiB every
// 2 µs of virtual time, about 1.4x its rate, so it both admits and
// throttles.
func driveQoS(tr *tracer, _ int64, m map[string]float64) {
	const calls = 20000
	reg := qos.NewRegistry()
	if err := reg.Add(qos.Spec{Name: "capped", RateBps: 1500 << 20}); err != nil {
		panic(err)
	}
	b := qos.NewShaper("bench", reg, nil).Bucket("capped", 0)
	var now int64
	m["qos.trytake_ns"], _ = repeat(tr, "qos.trytake", calls, func() {
		for i := 0; i < calls; i++ {
			now += 2000
			b.TryTake(now, 4096)
		}
	})
}

// driveTelemetry times recording one completion: a counter increment
// and a latency observation.
func driveTelemetry(tr *tracer, _ int64, m map[string]float64) {
	const calls = 50000
	tel := telemetry.New()
	m["telemetry.record_ns"], _ = repeat(tr, "telemetry.record", calls, func() {
		for i := 0; i < calls; i++ {
			tel.Inc(telemetry.CtrCompletions)
			tel.Observe(telemetry.HistReadLatency, int64(10000+i))
		}
	})
}

// driveZipfSetup times building a Zipf 0.99 stream over the cache
// workload's 2 GiB span of 4 KiB items.
func driveZipfSetup(tr *tracer, seed int64, m map[string]float64) {
	var ms []float64
	for i := 0; i < 5; i++ {
		e := sim.NewEngine(seed)
		ns, _ := timed(tr, "perf.new_stream", func() {
			perf.NewStream(e, &instantQueue{}, perf.Workload{IOSize: 4096, Zipf: 0.99, Span: 2 << 30})
		})
		ms = append(ms, float64(ns)/1e6)
	}
	m["perf.zipf_setup_ms"] = median(ms)
}
