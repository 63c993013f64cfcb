package exp

import (
	"fmt"
	"time"

	"nvmeoaf/internal/cluster"
	"nvmeoaf/internal/faults"
	"nvmeoaf/internal/model"
	"nvmeoaf/internal/netsim"
	"nvmeoaf/internal/perf"
	"nvmeoaf/internal/sim"
	"nvmeoaf/internal/stack"
)

// Cluster experiments model the paper's HPC-cloud deployment one level
// up: instead of one target VM per stream on a shared NIC, the namespace
// is sharded and replicated across ClusterTargets independent target
// machines (each with its own SSD, NIC, and fabric server), and a single
// client drives the placement/replication router. Read IOPS should scale
// with the member count — each extent's reads rotate across its
// replicas — while quorum writes pay the replication factor.

// nqnCluster names member i's storage service.
func nqnCluster(i int) string { return fmt.Sprintf("nqn.2022-06.io.oaf:cluster%d", i) }

// runCluster executes a replicated-namespace configuration: N member
// targets, one router, one perf stream.
func runCluster(cfg Config) (*Result, error) {
	n := cfg.ClusterTargets
	if cfg.ClusterSpares < 0 || cfg.ClusterSpares >= n {
		return nil, fmt.Errorf("exp: cluster spares must be in [0, %d)", n)
	}
	e := sim.NewEngine(cfg.Seed)
	defer e.Close()
	tel := cfg.Telemetry
	res := &Result{Telemetry: tel}
	// Cluster runs drive one logical stream, so one tenant (the first)
	// covers all router traffic; the replica fan-out marks every copy
	// after the first QoS-exempt, debiting the budget once per write.
	hostSh, tgtSh, err := cfg.qosShapers(tel)
	if err != nil {
		return nil, err
	}

	// Members are remote: an adaptive member has no loopback path and
	// rides TCP-100G.
	linkParams, err := stack.Link(cfg.Kind, model.TCP100G())
	if err != nil {
		return nil, fmt.Errorf("exp: %w", err)
	}
	b := stack.Binding{Kind: cfg.Kind, Design: cfg.Design, TP: cfg.TP, RDMA: cfg.RDMA, Telemetry: tel}
	links := make([]*netsim.Link, n)
	machines := make([]*stack.Machine, n)
	for i := range links {
		m, err := stack.NewMachine(e, stack.NewTarget(e), nqnCluster(i), stack.Disk{
			Name: fmt.Sprintf("cnvme%d", i), Capacity: cfg.SSDCapacity, SSD: cfg.SSD, Retain: cfg.RetainData,
		})
		if err != nil {
			return nil, err
		}
		machines[i] = m
		res.Devices = append(res.Devices, m.SSD)
		// One NIC per member: target machines are distinct hosts, so
		// fabric bandwidth scales with the member count (the client NIC
		// is modeled per link; the aggregate client side is not the
		// bottleneck under study here).
		nic := netsim.NewNIC(e, linkParams.WireBytesPerSec)
		links[i] = netsim.NewLink(e, linkParams, nic, nic)
		if _, pool := stack.Serve(e, m, links[i].B, stack.ServerConfig{Binding: b, QoS: tgtSh}); pool != nil {
			res.PoolFootprint += pool.FootprintBytes()
		}
	}

	var inj *faults.Injector
	if cfg.CrashDown > 0 {
		if cfg.CrashMember < 0 || cfg.CrashMember >= n {
			return nil, fmt.Errorf("exp: crash member %d out of range", cfg.CrashMember)
		}
		inj = faults.NewInjector(e)
		inj.CrashTarget(machines[cfg.CrashMember], cfg.CrashAt, cfg.CrashDown)
	}

	w := cfg.Workload
	w.Name = fmt.Sprintf("%s-cluster%d", cfg.Kind, n)
	w.Span = cfg.SSDCapacity

	var cl *cluster.Cluster
	var stream *perf.Stream
	setupErr := sim.NewFuture[error](e)
	e.Go("setup", func(p *sim.Proc) {
		cms := make([]cluster.Member, 0, n)
		for i, link := range links {
			// Commands fail fast with typed errors: the replication layer
			// owns redundancy, so a dead member should trigger failover,
			// not a long per-member retry loop.
			q, _, err := stack.Dial(p, link.A, stack.ClientConfig{
				Binding: b, NQN: nqnCluster(i), QueueDepth: w.QueueDepth,
				CommandTimeout: cluster.MemberCommandTimeout, MaxRetries: cluster.MemberMaxRetries,
				RetryBackoff: cluster.MemberRetryBackoff,
				Tenant:       cfg.TenantFor(0).Name, QoS: hostSh,
			})
			if err != nil {
				setupErr.Resolve(err)
				return
			}
			cms = append(cms, cluster.Member{Name: nqnCluster(i), Queue: q})
		}
		// Keep-alive probing only matters when a member can die; pure
		// perf runs skip the probe traffic.
		var probe time.Duration
		if cfg.CrashDown > 0 {
			probe = cluster.MemberProbeInterval
		}
		var err error
		cl, err = cluster.New(e, cms, cluster.Options{
			Seats:         n - cfg.ClusterSpares,
			Replicas:      cfg.ClusterReplicas,
			WriteQuorum:   cfg.ClusterWriteQuorum,
			ExtentSize:    cfg.ClusterExtent,
			ProbeInterval: probe,
			RetainData:    cfg.RetainData,
			Namespace:     w.Name,
			Telemetry:     tel,
		})
		if err != nil {
			setupErr.Resolve(err)
			return
		}
		stream = perf.NewStream(e, cl, w)
		stream.Start()
		// The router's probe loops re-arm timers forever; close it once
		// the stream drains so the engine can run out of events.
		e.GoDaemon("cluster-close", func(p *sim.Proc) {
			stream.Wait(p)
			cl.Close()
		})
		setupErr.Resolve(nil)
	})

	if err := e.Run(); err != nil {
		return nil, err
	}
	if err, ok := setupErr.Value(); ok && err != nil {
		return nil, err
	}

	res.PerStream = append(res.PerStream, stream.Result())
	res.Agg = perf.Merge(res.PerStream...)
	for _, l := range links {
		res.WireBytes += l.A.BytesSent + l.B.BytesSent
	}
	st := cl.Stats()
	res.Cluster = &st
	if inj != nil {
		res.FaultLog = inj.Log
	}
	res.finishQoS(hostSh, tgtSh)
	return res, nil
}
