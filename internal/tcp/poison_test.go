package tcp

import (
	"bytes"
	"testing"

	"nvmeoaf/internal/model"
	"nvmeoaf/internal/sim"
	"nvmeoaf/internal/transport"
)

// TestRealDataRoundTripPoisonedPool runs multi-chunk conservative writes
// with poison-on-free enabled. Payload bytes are staged into the pool
// elements on receive and gathered from them at execute, so a transport
// bug that frees (or reuses) an element before the device read would
// surface here as 0xDB corruption instead of passing silently.
func TestRealDataRoundTripPoisonedPool(t *testing.T) {
	r := newRig(t, true, nil)
	r.srv.pool.SetPoison(true)
	payload := make([]byte, 512<<10) // 4 chunks at the default 128K
	for i := range payload {
		payload[i] = byte(i*13 + 7)
	}
	r.e.Go("app", func(p *sim.Proc) {
		c := r.connect(t, p, 8)
		for round := 0; round < 3; round++ {
			res := transport.Submit(p, c, &transport.IO{Write: true, Offset: 4096, Size: len(payload), Data: payload}).Wait(p)
			if res.Err() != nil {
				t.Fatalf("round %d write: %v", round, res.Err())
			}
			into := make([]byte, len(payload))
			res = transport.Submit(p, c, &transport.IO{Offset: 4096, Size: len(payload), Data: into}).Wait(p)
			if res.Err() != nil {
				t.Fatalf("round %d read: %v", round, res.Err())
			}
			if !bytes.Equal(res.Data, payload) {
				t.Fatalf("round %d: payload corrupted through poisoned pool", round)
			}
		}
		c.Close()
		c.WaitClosed(p)
	})
	if err := r.e.Run(); err != nil {
		t.Fatal(err)
	}
	if r.srv.pool.InUse() != 0 {
		t.Fatalf("pool leak: %d elements in use", r.srv.pool.InUse())
	}
}

// TestPoisonPoolConfig checks the ServerConfig knob reaches the pool.
func TestPoisonPoolConfig(t *testing.T) {
	e := sim.NewEngine(1)
	srv := NewServer(e, nil, ServerConfig{NQN: "nqn.x", TP: model.DefaultTCPTransport(), PoisonPool: true})
	if !srv.pool.Poisoned() {
		t.Fatal("PoisonPool did not enable poison-on-free")
	}
}
