package sim

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"testing"
	"time"
)

// goldenTrace runs 32 seeded processes that mix Sleep, Yield, Signal,
// Future, Queue, Semaphore and Join operations, most of them with
// timeouts, and returns an FNV-64a hash of the (time, proc, step, outcome)
// record each process writes after every operation, plus the record count.
// Each process draws from its own random stream, so the operations do not
// depend on the interleaving; the trace does, and only through the
// kernel's dispatch order.
func goldenTrace(t *testing.T) (uint64, int) {
	const procs, steps = 32, 60
	e := NewEngine(1)
	defer e.Close()
	h := fnv.New64a()
	records := 0
	var buf [25]byte
	record := func(p *Proc, id, step int, outcome byte) {
		binary.LittleEndian.PutUint64(buf[0:], uint64(p.Now()))
		binary.LittleEndian.PutUint64(buf[8:], uint64(id))
		binary.LittleEndian.PutUint64(buf[16:], uint64(step))
		buf[24] = outcome
		h.Write(buf[:])
		records++
	}
	us := func(r *rand.Rand, n int) time.Duration { return time.Duration(r.Intn(n)) * time.Microsecond }
	bool2 := func(b bool) byte {
		if b {
			return 1
		}
		return 0
	}

	q := NewQueue[int](e, 3)
	sem := NewSemaphore(e, 2)
	sigs := []*Signal{NewSignal(e), NewSignal(e), NewSignal(e)}
	// A daemon drains the bounded queue slowly, so a blocked Put always
	// makes progress and the run never deadlocks on a full queue.
	e.GoDaemon("drain", func(p *Proc) {
		for {
			q.Get(p)
			p.Sleep(3 * time.Microsecond)
		}
	})
	for i := 0; i < procs; i++ {
		id := i
		r := rand.New(rand.NewSource(int64(1000 + id)))
		e.Go("golden", func(p *Proc) {
			p.Sleep(us(r, 4))
			for s := 0; s < steps; s++ {
				var out byte
				switch r.Intn(10) {
				case 0:
					p.Sleep(us(r, 6))
				case 1:
					p.Yield()
				case 2:
					q.Put(p, id)
				case 3:
					_, ok := q.GetTimeout(p, us(r, 8)+time.Microsecond)
					out = bool2(ok)
				case 4:
					sem.Acquire(p)
					p.Sleep(us(r, 5))
					sem.Release()
				case 5:
					out = bool2(sigs[r.Intn(len(sigs))].WaitTimeout(p, us(r, 10)+time.Microsecond))
				case 6:
					sg := sigs[r.Intn(len(sigs))]
					if r.Intn(3) == 0 {
						sg.Reset()
					} else {
						sg.Fire()
					}
				case 7:
					// A callback fires a signal later; the process races it
					// with a timed wait on a fresh future.
					sg := sigs[r.Intn(len(sigs))]
					e.After(us(r, 7), func() { sg.Fire(); sg.Reset() })
					f := NewFuture[int](e)
					d := us(r, 9)
					e.Go("resolver", func(c *Proc) {
						c.Sleep(d)
						f.Resolve(id)
					})
					_, ok := f.WaitTimeout(p, us(r, 9)+time.Microsecond)
					out = bool2(ok)
				case 8:
					d := us(r, 6)
					child := e.Go("child", func(c *Proc) { c.Sleep(d) })
					if r.Intn(2) == 0 {
						p.Join(child)
						out = 1
					}
				case 9:
					ok := sem.TryAcquire()
					if ok {
						p.Yield()
						sem.Release()
					}
					out = bool2(ok)
				}
				record(p, id, s, out)
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	return h.Sum64(), records
}

// TestDispatchOrderGolden pins the kernel's dispatch order: the trace
// hash was captured on the channel-handoff kernel, and every kernel
// since must reproduce it exactly.
func TestDispatchOrderGolden(t *testing.T) {
	const wantHash, wantRecords = 0xbea09ec1b9d6d1e2, 32 * 60
	sum, n := goldenTrace(t)
	if n != wantRecords || sum != wantHash {
		t.Fatalf("trace: %d records, hash %#x; want %d records, hash %#x", n, sum, wantRecords, uint64(wantHash))
	}
}
