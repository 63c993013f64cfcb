// Package host implements the NVMe-oF host (initiator) discovery layer
// above the transports: the discovery log and the identify flow that
// checks a controller's namespace before I/O. Spreading I/O across queue
// pairs is transport.StripedQueue's job (offset-ordered striping).
package host

import (
	"fmt"

	"nvmeoaf/internal/nvme"
	"nvmeoaf/internal/sim"
	"nvmeoaf/internal/transport"
)

// Discover fetches the discovery log through an established queue and
// returns the subsystems the target exposes.
func Discover(p *sim.Proc, q transport.Queue) ([]nvme.DiscoveryEntry, error) {
	buf := make([]byte, 64<<10)
	res := transport.Submit(p, q, &transport.IO{
		Admin: nvme.AdminGetLogPage, CDW10: nvme.LIDDiscovery, Data: buf, Size: len(buf),
	}).Wait(p)
	if err := res.Err(); err != nil {
		return nil, fmt.Errorf("host: discovery: %w", err)
	}
	return nvme.DecodeDiscoveryLog(res.Data)
}

// Controller is an identified NVMe-oF controller.
type Controller struct {
	// Info is the controller identify page.
	Info nvme.IdentifyController
	// NS is the namespace-1 identify page.
	NS nvme.IdentifyNamespace
}

// Probe identifies the controller behind already-established queues: it
// runs the identify flow on the first queue and validates the namespace.
func Probe(p *sim.Proc, queues ...transport.Queue) (*Controller, error) {
	if len(queues) == 0 {
		return nil, fmt.Errorf("host: no queues")
	}
	page, err := identify(p, queues[0], nvme.CNSController, 0, "controller")
	if err != nil {
		return nil, err
	}
	info, err := nvme.DecodeIdentifyController(page)
	if err != nil {
		return nil, err
	}
	if page, err = identify(p, queues[0], nvme.CNSNamespace, 1, "namespace"); err != nil {
		return nil, err
	}
	ns, err := nvme.DecodeIdentifyNamespace(page)
	if err != nil {
		return nil, err
	}
	if ns.BlockSize == 0 || ns.NSZE == 0 {
		return nil, fmt.Errorf("host: namespace not ready: %+v", ns)
	}
	return &Controller{Info: info, NS: ns}, nil
}

// identify runs one identify admin command on q and returns its page.
func identify(p *sim.Proc, q transport.Queue, cns, nsid uint32, what string) ([]byte, error) {
	res := transport.Submit(p, q, &transport.IO{
		Admin: nvme.AdminIdentify, CDW10: cns, NSID: nsid, Data: make([]byte, 4096), Size: 4096,
	}).Wait(p)
	if err := res.Err(); err != nil {
		return nil, fmt.Errorf("host: identify %s: %w", what, err)
	}
	return res.Data, nil
}

// CapacityBytes returns the namespace capacity.
func (c *Controller) CapacityBytes() int64 {
	return int64(c.NS.NSZE) * int64(c.NS.BlockSize)
}
