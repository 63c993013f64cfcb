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

// readHostWire is a host wire for read-only traffic on the plain TCP
// data path; it counts the doorbell trains it stages and charges stage
// per train.
type readHostWire struct {
	h      *Host
	ep     *netsim.Endpoint
	stage  time.Duration
	trains int
}

func (*readHostWire) BuildICReq(bool) *pdu.ICReq                { return &pdu.ICReq{} }
func (*readHostWire) AdoptICResp(*pdu.ICResp)                   {}
func (*readHostWire) Admit(*transport.IO) nvme.Status           { return nvme.StatusSuccess }
func (w *readHostWire) StageTrain(*sim.Proc, []*Pending)        { w.trains++ }
func (w *readHostWire) Transmit(p *sim.Proc, e *pdu.BatchEntry) { w.h.SendCapsule(p, e) }
func (w *readHostWire) TransmitTrain(p *sim.Proc, b *pdu.CmdBatch) {
	transport.SendPDUs(p, w.ep, b)
}
func (*readHostWire) PollBudget() time.Duration                        { return 0 }
func (*readHostWire) PreReactor(*sim.Proc)                             {}
func (*readHostWire) HandlePDU(*sim.Proc, pdu.PDU, time.Duration) bool { return false }
func (*readHostWire) ReleaseAttempt(*Pending)                          {}
func (*readHostWire) MakeIOEntry(pend *Pending) pdu.BatchEntry {
	io := pend.IO
	return pdu.BatchEntry{Cmd: nvme.NewRead(pend.CID, io.Nsid(), uint64(io.Offset/transport.BlockSize), uint32(io.Size/transport.BlockSize))}
}

// handshakeWire serves reads like readWire and also answers the
// handshake, so a Host can connect.
type handshakeWire struct{}

func (handshakeWire) NewConn(c *Conn) ConnWire { return handshakeConnWire{readConnWire{c}} }

type handshakeConnWire struct{ readConnWire }

func (w handshakeConnWire) OnICReq(*pdu.ICReq) { w.c.Post(nil, &pdu.ICResp{MaxH2CData: rigChunk}) }

// newHostRig serves reads from a Target over a loop link. The returned
// connect, called on a process, connects a Host to it over the returned
// readHostWire and starts the Host.
func newHostRig(t *testing.T) (*sim.Engine, *readHostWire, func(p *sim.Proc) *Host) {
	e := sim.NewEngine(3)
	t.Cleanup(e.Close)
	const nqn = "nqn.2022-06.io.test:close"
	tgt := target.New(e, model.DefaultHost())
	sub, err := tgt.AddSubsystem(nqn)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sub.AddNamespace(1, bdev.NewSimSSD(e, "ssd", 1<<30, model.DefaultSSD(), false, transport.BlockSize)); err != nil {
		t.Fatal(err)
	}
	link := netsim.NewLoopLink(e, model.TCP25G())
	NewTarget(e, tgt, TargetConfig{
		Label: "test", NQN: nqn, ChunkSize: rigChunk, Pool: mempool.New("test-data", rigChunk, 16),
	}, handshakeWire{}).Serve(link.B)
	w := &readHostWire{ep: link.A}
	connect := func(p *sim.Proc) *Host {
		h := NewHost(e, link.A, HostConfig{Label: "test", NQN: nqn, QueueDepth: 8, Host: model.DefaultHost()}, w)
		w.h = h
		if err := h.Handshake(p); err != nil {
			t.Fatal(err)
		}
		h.Start()
		return h
	}
	return e, w, connect
}

// Close fails every command staged by SubmitInto whose doorbell never
// rang, completes the rung ones, and lets WaitClosed return.
func TestCloseFailsStagedCommandsWithoutDoorbell(t *testing.T) {
	e, w, connect := newHostRig(t)
	closed := false
	e.Go("host", func(p *sim.Proc) {
		h := connect(p)
		rung := transport.Submit(p, h, &transport.IO{Offset: 0, Size: 4096})
		var staged []*sim.Future[*transport.Result]
		for i := 0; i < 4; i++ {
			fut := sim.NewFuture[*transport.Result](e)
			h.SubmitInto(p, &transport.IO{Offset: int64(i) * 4096, Size: 4096}, fut)
			staged = append(staged, fut)
		}
		h.Close()
		for i, fut := range staged {
			if !fut.Resolved() {
				t.Fatalf("staged command %d still pending after Close", i)
			}
			if r, _ := fut.Value(); r.Err() == nil {
				t.Errorf("staged command %d completed without an error", i)
			}
		}
		if r := rung.Wait(p); r.Err() != nil {
			t.Errorf("rung command failed across Close: %v", r.Err())
		}
		h.WaitClosed(p)
		closed = true
		if w.trains != 1 {
			t.Errorf("staged %d doorbell trains, want 1", w.trains)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !closed {
		t.Fatal("WaitClosed never returned")
	}
}

// A Close that lands while a doorbell is still staging its train waits
// for the train: the rung commands complete and then the queue closes.
func TestCloseWaitsForDoorbellInFlight(t *testing.T) {
	e, w, connect := newHostRig(t)
	w.stage = 50 * time.Microsecond
	var h *Host
	connected := sim.NewSignal(e)
	var res *transport.Result
	e.Go("submitter", func(p *sim.Proc) {
		h = connect(p)
		connected.Fire()
		res = transport.Submit(p, h, &transport.IO{Offset: 0, Size: 4096}).Wait(p)
	})
	closed := false
	e.Go("closer", func(p *sim.Proc) {
		connected.Wait(p)
		p.Sleep(time.Microsecond) // inside the submitter's doorbell
		h.Close()
		h.WaitClosed(p)
		closed = true
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if res == nil || res.Err() != nil {
		t.Fatalf("command rung before Close: result %+v", res)
	}
	if !closed {
		t.Fatal("WaitClosed never returned")
	}
}
