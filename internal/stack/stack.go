// Package stack builds every topology's storage stacks, and is the one
// place that maps a fabric kind to its link and wire binding: the choice
// the paper's Connection Manager makes per client/target pair (§4.1-4.2).
// Machine, link, server and client are separate steps, so each caller
// keeps its construction order, which sets the simulation's tie-breaks.
package stack

import (
	"fmt"
	"time"

	"nvmeoaf/internal/bdev"
	"nvmeoaf/internal/cache"
	"nvmeoaf/internal/core"
	"nvmeoaf/internal/mempool"
	"nvmeoaf/internal/model"
	"nvmeoaf/internal/netsim"
	"nvmeoaf/internal/qos"
	"nvmeoaf/internal/rdma"
	"nvmeoaf/internal/session"
	"nvmeoaf/internal/shm"
	"nvmeoaf/internal/sim"
	"nvmeoaf/internal/target"
	"nvmeoaf/internal/tcp"
	"nvmeoaf/internal/telemetry"
	"nvmeoaf/internal/transport"
)

// Kind names a fabric.
type Kind string

// The evaluated fabrics.
const (
	TCP10G  Kind = "tcp-10g"
	TCP25G  Kind = "tcp-25g"
	TCP100G Kind = "tcp-100g"
	RDMA56  Kind = "rdma-ib56"
	RoCE100 Kind = "roce-100g"
	OAF     Kind = "nvme-oaf"
	// OAFRDMACtl is the paper's future-work variant (§5.5, §8): the
	// adaptive fabric's control plane runs over an intra-node RDMA path
	// instead of loopback TCP, attacking the control-message overhead
	// that dominates oAF at small I/O sizes.
	OAFRDMACtl Kind = "nvme-oaf-rdmactl"
)

// Adaptive reports whether the kind runs the NVMe-oAF binding.
func (k Kind) Adaptive() bool { return k == OAF || k == OAFRDMACtl }

func (k Kind) rdma() bool { return k == RDMA56 || k == RoCE100 }

// rdmaParams resolves kind k's RDMA parameters; a non-nil override wins.
func rdmaParams(k Kind, override *model.RDMAParams) model.RDMAParams {
	if override != nil {
		return *override
	}
	if k == RoCE100 {
		return model.RoCE100G()
	}
	return model.RDMA56G()
}

// Link returns the link parameters of kind k. An OAF pair rides adaptive:
// the loopback path when client and target share a host, an Ethernet
// link otherwise. OAFRDMACtl rides the RDMA link of its control plane.
func Link(k Kind, adaptive model.LinkParams) (model.LinkParams, error) {
	switch k {
	case TCP10G:
		return model.TCP10G(), nil
	case TCP25G:
		return model.TCP25G(), nil
	case TCP100G:
		return model.TCP100G(), nil
	case RDMA56, RoCE100, OAFRDMACtl:
		return rdma.LinkParams(rdmaParams(k, nil)), nil
	case OAF:
		return adaptive, nil
	}
	return model.LinkParams{}, fmt.Errorf("stack: unknown fabric %q", k)
}

// Host is one physical machine's network ports: the external 25 GbE NIC
// and the intra-node vswitch path.
type Host struct {
	Name      string
	nic, loop *netsim.NIC
}

// NewHost creates a host's ports.
func NewHost(e *sim.Engine, name string) *Host {
	return &Host{
		Name: name,
		nic:  netsim.NewNIC(e, model.TCP25G().WireBytesPerSec),
		loop: netsim.NewNIC(e, model.Loopback().WireBytesPerSec),
	}
}

// HostLink joins a client host to a target host for kind k: a co-located
// OAF pair over the vswitch loopback, every other pair over the external
// NICs (a remote OAF pair over TCP-25G).
func HostLink(e *sim.Engine, client, tgt *Host, k Kind) (*netsim.Link, error) {
	if k == OAF && client == tgt {
		return netsim.NewLink(e, model.Loopback(), client.loop, tgt.loop), nil
	}
	lp, err := Link(k, model.TCP25G())
	if err != nil {
		return nil, err
	}
	return netsim.NewLink(e, lp, client.nic, tgt.nic), nil
}

// Disk describes the SSD behind a machine's namespace and, when
// CacheBytes is positive, the DRAM block cache in front of it.
type Disk struct {
	Name            string
	Capacity        int64
	SSD             model.SSDParams
	Retain          bool
	CacheBytes      int64
	CacheMode       cache.Mode
	TenantDirtyFrac map[string]float64
	Telemetry       *telemetry.Sink // the cache's counters
}

// Machine is one storage service: a subsystem on a target (which several
// machines may share), its SSD and optional cache. It is the service's
// crash handle: crashing it drops every server built for it so far.
type Machine struct {
	Target  *target.Target
	NQN     string
	SSD     *bdev.SSDBdev
	Cache   *cache.Cache // nil when uncached
	servers []*session.Target
}

// Crash crashes every server of the machine.
func (m *Machine) Crash() {
	for _, s := range m.servers {
		s.Crash()
	}
}

// Restart restarts every server of the machine.
func (m *Machine) Restart() {
	for _, s := range m.servers {
		s.Restart()
	}
}

// NewTarget creates a target with the default host software costs.
func NewTarget(e *sim.Engine) *target.Target { return target.New(e, model.DefaultHost()) }

// NewMachine adds subsystem nqn to tgt, backed by d as namespace 1.
func NewMachine(e *sim.Engine, tgt *target.Target, nqn string, d Disk) (*Machine, error) {
	sub, err := tgt.AddSubsystem(nqn)
	if err != nil {
		return nil, err
	}
	m := &Machine{Target: tgt, NQN: nqn}
	m.SSD = bdev.NewSimSSD(e, d.Name, d.Capacity, d.SSD, d.Retain, transport.BlockSize)
	var dev bdev.Device = m.SSD
	if d.CacheBytes > 0 {
		m.Cache = cache.New(e, m.SSD, cache.Config{
			Bytes: d.CacheBytes, Mode: d.CacheMode, Retain: d.Retain,
			Telemetry: d.Telemetry, TenantDirtyFrac: d.TenantDirtyFrac,
		})
		dev = m.Cache
	}
	if _, err := sub.AddNamespace(1, dev); err != nil {
		return nil, err
	}
	return m, nil
}

// Binding is what both ends of one connection agree on.
type Binding struct {
	Kind   Kind
	Design core.Design // shared-memory design of adaptive kinds
	// TP carries the TCP-channel knobs; its BatchSize sets the
	// submission/completion trains of every kind.
	TP        model.TCPTransportParams
	RDMA      *model.RDMAParams // nil = the RDMA kind's default
	Telemetry *telemetry.Sink
}

// ServerConfig configures one fabric server.
type ServerConfig struct {
	Binding
	// SHM resolves the shared-memory regions of adaptive kinds (nil keeps
	// every connection on the TCP data path).
	SHM *core.Fabric
	QoS *qos.Shaper // target-side admission (nil = off)
}

// Serve builds m's fabric server, serves the link end ep, and returns the
// server's session engine and data pool (nil for RDMA). A crash loses
// the cache's unflushed write-back data; the next flush reports it.
func Serve(e *sim.Engine, m *Machine, ep *netsim.Endpoint, cfg ServerConfig) (*session.Target, *mempool.Pool) {
	var onCrash func()
	if ca := m.Cache; ca != nil {
		onCrash = func() { ca.LoseDirty() }
	}
	var st *session.Target
	var pool *mempool.Pool
	switch {
	case cfg.Kind.rdma():
		st = rdma.NewServer(e, m.Target, rdma.ServerConfig{
			NQN: m.NQN, Params: rdmaParams(cfg.Kind, cfg.RDMA), Host: model.DefaultHost(),
			BatchSize: cfg.TP.BatchSize, Telemetry: cfg.Telemetry, QoS: cfg.QoS, OnCrash: onCrash,
		}).Target
	case cfg.Kind.Adaptive():
		srv := core.NewServer(e, m.Target, core.ServerConfig{
			NQN: m.NQN, Design: cfg.Design, Fabric: cfg.SHM, TP: cfg.TP, Host: model.DefaultHost(),
			Telemetry: cfg.Telemetry, QoS: cfg.QoS, OnCrash: onCrash,
		})
		st, pool = srv.Target, srv.Pool()
	default:
		srv := tcp.NewServer(e, m.Target, tcp.ServerConfig{
			NQN: m.NQN, TP: cfg.TP, Host: model.DefaultHost(),
			Telemetry: cfg.Telemetry, QoS: cfg.QoS, OnCrash: onCrash,
		})
		st, pool = srv.Target, srv.Pool()
	}
	st.Serve(ep)
	m.servers = append(m.servers, st)
	return st, pool
}

// ClientConfig configures one client queue pair; zero recovery knobs are
// off, and RegCache, Merge and DynDoorbell enable the RDMA fast path.
type ClientConfig struct {
	Binding
	NQN        string
	QueueDepth int
	Region     *shm.Region // the adaptive pair's mapping (nil = TCP data path)

	CommandTimeout, RetryBackoff, KeepAlive time.Duration
	MaxRetries                              int

	Tenant string
	QoS    *qos.Shaper

	RegCache, Merge, DynDoorbell bool
}

// Dial connects a client queue pair of cfg.Kind over the link end ep and
// returns it with the session engine behind it.
func Dial(p *sim.Proc, ep *netsim.Endpoint, cfg ClientConfig) (q transport.Queue, h *session.Host, err error) {
	switch {
	case cfg.Kind.rdma():
		var c *rdma.Client
		if c, err = rdma.Connect(p, ep, rdma.ClientConfig{
			NQN: cfg.NQN, QueueDepth: cfg.QueueDepth, Params: rdmaParams(cfg.Kind, cfg.RDMA), Host: model.DefaultHost(),
			BatchSize: cfg.TP.BatchSize, CommandTimeout: cfg.CommandTimeout, MaxRetries: cfg.MaxRetries,
			RetryBackoff: cfg.RetryBackoff, KeepAlive: cfg.KeepAlive,
			Telemetry: cfg.Telemetry, Tenant: cfg.Tenant, QoS: cfg.QoS,
			RegCache: cfg.RegCache, Merge: cfg.Merge, DynDoorbell: cfg.DynDoorbell,
		}); err == nil {
			q, h = c, c.Host
		}
	case cfg.Kind.Adaptive():
		var c *core.Client
		if c, err = core.Connect(p, ep, core.ClientConfig{
			NQN: cfg.NQN, QueueDepth: cfg.QueueDepth, Design: cfg.Design, Region: cfg.Region,
			TP: cfg.TP, Host: model.DefaultHost(), CommandTimeout: cfg.CommandTimeout, MaxRetries: cfg.MaxRetries,
			RetryBackoff: cfg.RetryBackoff, KeepAlive: cfg.KeepAlive,
			Telemetry: cfg.Telemetry, Tenant: cfg.Tenant, QoS: cfg.QoS,
		}); err == nil {
			q, h = c, c.Host
		}
	default:
		var c *tcp.Client
		if c, err = tcp.Connect(p, ep, tcp.ClientConfig{
			NQN: cfg.NQN, QueueDepth: cfg.QueueDepth,
			TP: cfg.TP, Host: model.DefaultHost(), CommandTimeout: cfg.CommandTimeout, MaxRetries: cfg.MaxRetries,
			RetryBackoff: cfg.RetryBackoff, KeepAlive: cfg.KeepAlive,
			Telemetry: cfg.Telemetry, Tenant: cfg.Tenant, QoS: cfg.QoS,
		}); err == nil {
			q, h = c, c.Host
		}
	}
	return q, h, err
}
