package session

import (
	"testing"
	"time"

	"nvmeoaf/internal/bdev"
	"nvmeoaf/internal/mempool"
	"nvmeoaf/internal/model"
	"nvmeoaf/internal/netsim"
	"nvmeoaf/internal/nvme"
	"nvmeoaf/internal/pdu"
	"nvmeoaf/internal/sim"
	"nvmeoaf/internal/target"
	"nvmeoaf/internal/transport"
)

// readWire is a target wire that serves every read on the plain TCP
// data path and nothing else.
type readWire struct{}

func (readWire) NewConn(c *Conn) ConnWire { return readConnWire{c} }

type readConnWire struct{ c *Conn }

func (readConnWire) OnICReq(*pdu.ICReq) {}
func (readConnWire) TrType() uint8      { return nvme.TrTypeTCP }
func (readConnWire) PreLoop()           {}
func (w readConnWire) DispatchRead(cmd nvme.Command, transit time.Duration) {
	w.c.StartReadTCP(cmd, transit)
}
func (readConnWire) DispatchWrite(*pdu.CapsuleCmd, int, time.Duration) { panic("write") }
func (readConnWire) HandlePDU(*sim.Proc, pdu.PDU, time.Duration) bool  { return false }
func (readConnWire) Teardown()                                         {}

// readRig drives one read at a time from a bare client endpoint into a
// Target over a netsim link. The client reuses one encoded capsule and
// one message, so what a read allocates is the target's (and the
// link's) doing.
type readRig struct {
	e       *sim.Engine
	req     *sim.Signal
	cmd     nvme.Command
	n       int // reads per request
	replies []*netsim.Message
}

const rigChunk = 8 << 10

func newReadRig(t *testing.T) *readRig {
	e := sim.NewEngine(1)
	t.Cleanup(e.Close)
	const nqn = "nqn.2022-06.io.test:reads"
	tgt := target.New(e, model.DefaultHost())
	sub, err := tgt.AddSubsystem(nqn)
	if err != nil {
		t.Fatal(err)
	}
	dev := bdev.NewSimSSD(e, "ssd", 1<<30, model.DefaultSSD(), false, transport.BlockSize)
	if _, err := sub.AddNamespace(1, dev); err != nil {
		t.Fatal(err)
	}
	link := netsim.NewLoopLink(e, model.TCP25G())
	NewTarget(e, tgt, TargetConfig{
		Label:     "test",
		NQN:       nqn,
		ChunkSize: rigChunk,
		Pool:      mempool.New("test-data", rigChunk, 16),
	}, readWire{}).Serve(link.B)

	r := &readRig{e: e, req: sim.NewSignal(e)}
	var msg netsim.Message
	var buf []byte
	e.GoDaemon("client", func(p *sim.Proc) {
		for {
			r.req.Wait(p)
			r.req.Reset()
			for range r.n {
				buf = (&pdu.CapsuleCmd{Cmd: r.cmd}).Encode(buf[:0])
				msg = netsim.Message{Data: buf}
				link.A.Send(p, &msg)
				// One message per chunk; the last carries the response.
				r.replies = r.replies[:0]
				for range transport.Chunks(int(r.cmd.NLB())*transport.BlockSize, rigChunk) {
					r.replies = append(r.replies, link.A.Recv(p))
				}
				r.cmd.CDW10 += 8
			}
		}
	})
	return r
}

// read runs n reads of nlb blocks, one after another from slba in steps
// of 8 blocks, in one run of the engine.
func (r *readRig) read(t testing.TB, n int, slba uint64, nlb uint32) {
	r.cmd, r.n = nvme.NewRead(7, 1, slba, nlb), n
	r.req.Fire()
	if err := r.e.Run(); err != nil {
		t.Fatal(err)
	}
}

// maxReadAllocs bounds the allocations of one warm 4 KiB read, about 14
// today: the capsule decode, the worker process, the pool buffer handle,
// the SSD model's request and future, the encoded reply and its message,
// and the link's delivery. Without recycled read contexts the closures,
// buffer slice, PDUs and transmit batches of each read add 12 more.
const maxReadAllocs = 15

// TestTargetReadPathRecyclesState runs reads of one and of several chunks
// through StartReadTCP, checks each reply, and bounds what a warm 4 KiB
// read allocates.
func TestTargetReadPathRecyclesState(t *testing.T) {
	r := newReadRig(t)
	for i, nlb := range []uint32{1, 4, 1, 3, 1} {
		r.read(t, 1, uint64(i*8), nlb)
		size := int(nlb) * transport.BlockSize
		off := 0
		for j, msg := range r.replies {
			pdus, err := transport.DecodeAll(msg)
			if err != nil {
				t.Fatal(err)
			}
			last := j == len(r.replies)-1
			want := 1
			if last {
				want = 2 // the final chunk and the response
			}
			if len(pdus) != want {
				t.Fatalf("read %d, message %d: %d PDUs, want %d", i, j, len(pdus), want)
			}
			d, ok := pdus[0].(*pdu.Data)
			if !ok || d.CID != 7 || int(d.Offset) != off || d.Last != last {
				t.Fatalf("read %d, message %d: data PDU %#v", i, j, pdus[0])
			}
			off += d.VirtualLen
			if last {
				resp, ok := pdus[1].(*pdu.CapsuleResp)
				if !ok || resp.Rsp.CID != 7 || resp.Rsp.Status.IsError() {
					t.Fatalf("read %d: response %#v", i, pdus[1])
				}
			}
		}
		if off != size {
			t.Fatalf("read %d: %d bytes arrived, want %d", i, off, size)
		}
	}

	// Many reads per run: each run starts the worker's carrier afresh,
	// and that set-up is not a per-read cost.
	const perRun = 100
	allocs := testing.AllocsPerRun(20, func() { r.read(t, perRun, 64, 1) }) / perRun
	t.Logf("%.2f allocations per 4 KiB read", allocs)
	if allocs > maxReadAllocs {
		t.Errorf("a 4 KiB read allocates %.2f times, want at most %d", allocs, maxReadAllocs)
	}
}
