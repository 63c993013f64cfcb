package exp

import (
	"fmt"

	"nvmeoaf/internal/blockfs"
	"nvmeoaf/internal/core"
	"nvmeoaf/internal/h5bench"
	"nvmeoaf/internal/hdf5"
	"nvmeoaf/internal/model"
	"nvmeoaf/internal/nfs"
	"nvmeoaf/internal/shm"
	"nvmeoaf/internal/sim"
	"nvmeoaf/internal/stack"
	"nvmeoaf/internal/vol"
)

// H5Backend selects the storage path beneath the h5bench kernels.
type H5Backend string

// The h5bench storage backends of §5.7.
const (
	// H5OAF is the HDF5/NVMe-oAF co-design (zero-copy shared memory).
	H5OAF H5Backend = "oaf"
	// H5OAFCoalesce adds the VOL's application-agnostic I/O coalescing.
	H5OAFCoalesce H5Backend = "oaf-coalesce"
	// H5TCP runs the VOL over NVMe/TCP-25G (the remote path of the
	// scale-out cases).
	H5TCP H5Backend = "tcp-25g"
	// H5NFS is the async-mounted NFS baseline.
	H5NFS H5Backend = "nfs"
)

// H5Config describes one h5bench experiment.
type H5Config struct {
	Backend H5Backend
	Kernel  h5bench.Config
	// Design overrides the shared-memory design (default zero-copy).
	Design core.Design
	Seed   int64
	// VOL tunes the connector (zero value = defaults).
	VOL vol.Config
}

// h5Storage builds the storage stack for one kernel: a dedicated SSD
// behind the chosen backend. It returns the mounted hdf5.Storage plus a
// remount function that yields a fresh mount with cold caches (the read
// kernel runs against a fresh mount, as h5bench does).
func h5Storage(e *sim.Engine, p *sim.Proc, fabric *core.Fabric, clientNode, targetNode *stack.Host,
	cfg H5Config, idx int) (hdf5.Storage, func(p *sim.Proc) hdf5.Storage, error) {
	const capacity = 4 << 30
	m, err := stack.NewMachine(e, stack.NewTarget(e), fmt.Sprintf("nqn.2022-06.io.oaf:h5-%s-%d", clientNode.Name, idx), stack.Disk{
		Name: fmt.Sprintf("h5-nvme-%s-%d", clientNode.Name, idx), Capacity: capacity, SSD: model.DefaultSSD(), Retain: true,
	})
	if err != nil {
		return nil, nil, err
	}

	var kind stack.Kind
	switch cfg.Backend {
	case H5NFS:
		// NFS server runs on the target node; the client mounts it over
		// the 25 GbE network (hairpin when co-located). A remount builds a
		// fresh client (and server instance over the same export) so
		// caches start cold.
		mount := func(p *sim.Proc) hdf5.Storage {
			link, _ := stack.HostLink(e, clientNode, targetNode, stack.TCP25G) // a known kind: no error
			nfs.NewServer(e, link.B, m.SSD, model.DefaultNFS())
			return nfs.NewClient(e, link.A, model.DefaultNFS())
		}
		return mount(p), mount, nil
	case H5TCP:
		kind = stack.TCP25G
	case H5OAF, H5OAFCoalesce:
		kind = stack.OAF
	default:
		return nil, nil, fmt.Errorf("exp: unknown h5 backend %q", cfg.Backend)
	}

	// The h5bench runs keep no telemetry.
	b := stack.Binding{Kind: kind, Design: cfg.Design, TP: model.DefaultTCPTransport()}
	if b.Design == core.DesignTCP {
		b.Design = core.DesignSHMZeroCopy
	}
	link, _ := stack.HostLink(e, clientNode, targetNode, kind) // a known kind: no error
	stack.Serve(e, m, link.B, stack.ServerConfig{Binding: b, SHM: fabric})
	var region *shm.Region
	if kind == stack.OAF {
		// Remote pairs get no region; a failed provision degrades to the
		// TCP data path.
		region, _ = fabric.RegionFor(b.Design, clientNode.Name, targetNode.Name, 1<<20, b.TP.ChunkSize, 64)
	}
	c, _, err := stack.Dial(p, link.A, stack.ClientConfig{Binding: b, NQN: m.NQN, QueueDepth: 64, Region: region})
	if err != nil {
		return nil, nil, err
	}
	volCfg := cfg.VOL
	volCfg.Coalesce = cfg.Backend == H5OAFCoalesce
	mount := func(p *sim.Proc) hdf5.Storage {
		return vol.New(blockfs.New(e, c, capacity), volCfg)
	}
	return mount(p), mount, nil
}

// H5Result is one write+read kernel pair.
type H5Result struct {
	Write, Read h5bench.Result
}

// RunH5 runs the write kernel followed by the read kernel on one
// client/target pair (Figs 16 and 17).
func RunH5(cfg H5Config) (H5Result, error) {
	e := sim.NewEngine(cfg.Seed)
	defer e.Close()
	fabric := core.NewFabric(e, model.DefaultSHM())
	host := stack.NewHost(e, "host0")
	var out H5Result
	var runErr error
	e.Go("h5bench", func(p *sim.Proc) {
		st, remount, err := h5Storage(e, p, fabric, host, host, cfg, 0)
		if err != nil {
			runErr = err
			return
		}
		w, err := h5bench.WriteKernel(p, st, cfg.Kernel)
		if err != nil {
			runErr = err
			return
		}
		// The read kernel runs against a fresh mount (cold caches).
		r, err := h5bench.ReadKernel(p, remount(p), cfg.Kernel)
		if err != nil {
			runErr = err
			return
		}
		out = H5Result{Write: w, Read: r}
	})
	if err := e.Run(); err != nil {
		return out, err
	}
	return out, runErr
}

// ScaleCase selects the paper's scale-out topology (§5.7.2).
type ScaleCase int

const (
	// Case1 places four clients on one node and their SSDs on four
	// separate nodes; SHM-fraction clients get a co-located target
	// instead.
	Case1 ScaleCase = 1
	// Case2 co-locates each client with its SSD on one node; non-SHM
	// clients reach their (same-node) target over TCP, as in §3.1.
	Case2 ScaleCase = 2
)

// RunH5Scale runs four h5bench kernels with the given fraction (0..4) of
// them using the shared-memory channel, and returns aggregate write and
// read bandwidth (Figs 18 and 19).
func RunH5Scale(scase ScaleCase, shmKernels int, seed int64) (writeGBps, readGBps float64, err error) {
	if shmKernels < 0 || shmKernels > 4 {
		return 0, 0, fmt.Errorf("exp: shmKernels %d out of range", shmKernels)
	}
	writes, err := runH5Scale(scase, shmKernels, seed, false)
	if err != nil {
		return 0, 0, err
	}
	// Read phase: a fresh engine run would lose the written files, so a
	// second pass in a new engine writes them first (un-timed) and reads
	// concurrently.
	reads, err := runH5Scale(scase, shmKernels, seed+1, true)
	if err != nil {
		return 0, 0, err
	}
	return h5bench.AggregateBandwidth(writes), h5bench.AggregateBandwidth(reads), nil
}

// runH5Scale builds the scale-out topology on an engine seeded with seed
// and runs the four kernels: their write kernels, or, when read is set,
// quiet write kernels followed by four concurrent read kernels once every
// file is written.
func runH5Scale(scase ScaleCase, shmKernels int, seed int64, read bool) ([]h5bench.Result, error) {
	e := sim.NewEngine(seed)
	defer e.Close()
	fabric := core.NewFabric(e, model.DefaultSHM())
	clientNode := stack.NewHost(e, "nodeA")
	remotes := []*stack.Host{stack.NewHost(e, "nodeB"), stack.NewHost(e, "nodeC"), stack.NewHost(e, "nodeD"), stack.NewHost(e, "nodeE")}
	kernel := h5bench.Config1()
	out := make([]h5bench.Result, 4)
	var runErr error
	name := "h5scale-%d"
	written := sim.NewWaitGroup(e)
	written.Add(4)
	ready := sim.NewSignal(e)
	if read {
		name = "h5scale-read-%d"
		e.Go("barrier", func(p *sim.Proc) {
			written.Wait(p)
			ready.Fire()
		})
	}
	for i := 0; i < 4; i++ {
		i := i
		e.Go(fmt.Sprintf(name, i), func(p *sim.Proc) {
			cfg := H5Config{Backend: H5OAF, Kernel: kernel}
			tgtNode := clientNode
			switch {
			case i < shmKernels:
			case scase == Case1:
				tgtNode = remotes[i]
			default: // Case2: remote path stays on the same node over TCP
				cfg.Backend = H5TCP
			}
			st, remount, err := h5Storage(e, p, fabric, clientNode, tgtNode, cfg, i)
			if err == nil {
				out[i], err = h5bench.WriteKernel(p, st, kernel)
			}
			if read {
				written.Done()
				if err == nil {
					ready.Wait(p)
					out[i], err = h5bench.ReadKernel(p, remount(p), kernel)
				}
			}
			if err != nil {
				runErr = err
			}
		})
	}
	if err := e.Run(); err != nil {
		return nil, err
	}
	return out, runErr
}
