package sim

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

func TestClockAdvancesWithSleep(t *testing.T) {
	e := NewEngine(1)
	var wake Time
	e.Go("sleeper", func(p *Proc) {
		p.Sleep(42 * time.Microsecond)
		wake = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if wake != Time(42*time.Microsecond) {
		t.Fatalf("woke at %v, want 42us", wake)
	}
}

func TestEventsFireInTimeOrder(t *testing.T) {
	e := NewEngine(1)
	var order []int
	e.After(30*time.Microsecond, func() { order = append(order, 3) })
	e.After(10*time.Microsecond, func() { order = append(order, 1) })
	e.After(20*time.Microsecond, func() { order = append(order, 2) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i+1 {
			t.Fatalf("order = %v", order)
		}
	}
}

func TestEqualTimestampsFireFIFO(t *testing.T) {
	e := NewEngine(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.After(time.Microsecond, func() { order = append(order, i) })
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v", order)
		}
	}
}

func TestNestedSpawn(t *testing.T) {
	e := NewEngine(1)
	total := 0
	e.Go("parent", func(p *Proc) {
		for i := 0; i < 5; i++ {
			e.Go("child", func(c *Proc) {
				c.Sleep(time.Microsecond)
				total++
			})
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if total != 5 {
		t.Fatalf("total = %d, want 5", total)
	}
}

func TestJoinWaitsForChild(t *testing.T) {
	e := NewEngine(1)
	var joined Time
	e.Go("parent", func(p *Proc) {
		child := e.Go("child", func(c *Proc) { c.Sleep(100 * time.Microsecond) })
		p.Join(child)
		joined = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if joined != Time(100*time.Microsecond) {
		t.Fatalf("joined at %v, want 100us", joined)
	}
}

func TestJoinFinishedProcReturnsImmediately(t *testing.T) {
	e := NewEngine(1)
	e.Go("parent", func(p *Proc) {
		child := e.Go("child", func(c *Proc) {})
		p.Sleep(time.Millisecond)
		start := p.Now()
		p.Join(child)
		if p.Now() != start {
			t.Errorf("join of finished child advanced time")
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestPanicSurfacesAsError(t *testing.T) {
	e := NewEngine(1)
	e.Go("boom", func(p *Proc) {
		p.Sleep(time.Microsecond)
		panic("kaboom")
	})
	err := e.Run()
	if err == nil {
		t.Fatal("expected panic error")
	}
}

func TestDeadlockDetected(t *testing.T) {
	e := NewEngine(1)
	q := NewQueue[int](e, 0)
	e.Go("starved", func(p *Proc) {
		q.Get(p) // nobody ever puts
	})
	err := e.Run()
	if err == nil {
		t.Fatal("expected deadlock error")
	}
}

func TestRunUntilStopsClock(t *testing.T) {
	e := NewEngine(1)
	n := 0
	e.Go("ticker", func(p *Proc) {
		for i := 0; i < 1000; i++ {
			p.Sleep(time.Millisecond)
			n++
		}
	})
	if err := e.RunUntil(Time(10*time.Millisecond + time.Microsecond)); err != nil {
		t.Fatal(err)
	}
	if n != 10 {
		t.Fatalf("ticks = %d, want 10", n)
	}
	if e.Now() != Time(10*time.Millisecond+time.Microsecond) {
		t.Fatalf("clock = %v", e.Now())
	}
}

func TestRandStreamsIndependentAndReproducible(t *testing.T) {
	a1 := NewEngine(7).Rand("a").Int63()
	a2 := NewEngine(7).Rand("a").Int63()
	b := NewEngine(7).Rand("b").Int63()
	if a1 != a2 {
		t.Fatal("same seed+stream should reproduce")
	}
	if a1 == b {
		t.Fatal("different streams should differ")
	}
}

func TestDeterministicInterleaving(t *testing.T) {
	run := func() []string {
		e := NewEngine(3)
		var log []string
		q := NewQueue[string](e, 2)
		for i, name := range []string{"a", "b", "c"} {
			name := name
			d := time.Duration(i) * 10 * time.Microsecond
			e.Go("prod-"+name, func(p *Proc) {
				p.Sleep(d)
				for j := 0; j < 3; j++ {
					q.Put(p, name)
					p.Sleep(7 * time.Microsecond)
				}
			})
		}
		e.Go("cons", func(p *Proc) {
			for i := 0; i < 9; i++ {
				v, _ := q.Get(p)
				log = append(log, v)
				p.Sleep(5 * time.Microsecond)
			}
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return log
	}
	first := run()
	for i := 0; i < 3; i++ {
		again := run()
		for j := range first {
			if first[j] != again[j] {
				t.Fatalf("run %d diverged at %d: %v vs %v", i, j, first, again)
			}
		}
	}
}

func TestTimeArithmetic(t *testing.T) {
	tm := Time(1500)
	if tm.Add(500).Nanoseconds() != 2000 {
		t.Fatal("Add")
	}
	if tm.Sub(Time(500)) != 1000*time.Nanosecond {
		t.Fatal("Sub")
	}
	if Time(2e3).Micros() != 2 {
		t.Fatal("Micros")
	}
	if Time(3e9).Seconds() != 3 {
		t.Fatal("Seconds")
	}
}

// TestEngineHandoffZeroAlloc is the kernel's allocation gate: once warm,
// a Sleep/wake cycle, a two-process Signal ping-pong and a park on a fresh
// Future allocate nothing. Each run advances the clock by one
// microsecond, so it covers one cycle plus the switches in and out of
// RunUntil.
func TestEngineHandoffZeroAlloc(t *testing.T) {
	e := NewEngine(1)
	defer e.Close()
	e.GoDaemon("ticker", func(p *Proc) {
		for {
			p.Sleep(time.Microsecond)
		}
	})
	step := func() {
		if err := e.RunUntil(e.Now().Add(time.Microsecond)); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(1000, step); n != 0 {
		t.Errorf("Sleep/wake cycle: %v allocs, want 0", n)
	}

	f := NewEngine(1)
	defer f.Close()
	ping, pong := NewSignal(f), NewSignal(f)
	f.GoDaemon("ping", func(p *Proc) {
		for {
			p.Sleep(time.Microsecond)
			pong.Fire()
			ping.Wait(p)
			ping.Reset()
		}
	})
	f.GoDaemon("pong", func(p *Proc) {
		for {
			pong.Wait(p)
			pong.Reset()
			ping.Fire()
		}
	})
	rounds := 0
	f.GoDaemon("count", func(p *Proc) {
		for {
			pong.Wait(p)
			rounds++
		}
	})
	step = func() {
		if err := f.RunUntil(f.Now().Add(time.Microsecond)); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(1000, step); n != 0 {
		t.Errorf("Signal ping-pong: %v allocs, want 0", n)
	}
	if rounds < 1000 {
		t.Errorf("ping-pong made %d rounds, want at least 1000", rounds)
	}

	// A fresh Future every cycle: its first waiter must park without
	// allocating a wait-list slot. The Future is a reused value, so the
	// only allocation it could cause is the park itself.
	g := NewEngine(1)
	defer g.Close()
	var fut Future[int]
	parks := 0
	g.GoDaemon("waiter", func(p *Proc) {
		for {
			fut = Future[int]{sig: Signal{e: g}}
			fut.Wait(p)
			parks++
		}
	})
	g.GoDaemon("resolver", func(p *Proc) {
		for {
			p.Sleep(time.Microsecond)
			fut.Resolve(1)
		}
	})
	step = func() {
		if err := g.RunUntil(g.Now().Add(time.Microsecond)); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(1000, step); n != 0 {
		t.Errorf("park on a fresh Future: %v allocs, want 0", n)
	}
	if parks < 1000 {
		t.Errorf("the fresh-Future cycle ran %d times, want at least 1000", parks)
	}
}

// settledGoroutines returns runtime.NumGoroutine once it has dropped to
// want, or after a second. A goroutine that has acknowledged its exit
// may still be counted for a moment. The count may also end below want,
// when a goroutine of an earlier test was still exiting as want was
// taken, so callers check only for an excess.
func settledGoroutines(want int) int {
	deadline := time.Now().Add(time.Second)
	n := runtime.NumGoroutine()
	for n > want && time.Now().Before(deadline) {
		runtime.Gosched()
		n = runtime.NumGoroutine()
	}
	return n
}

// A timed-out wait leaves a stale entry in its wait list. Waking that
// entry must neither resume the process from a later, fresh park nor use
// up the wakeup that a live waiter behind it is owed.
func TestStaleWaiterDoesNotWakeFreshPark(t *testing.T) {
	const timeout, poke, release = 10 * time.Microsecond, 20 * time.Microsecond, 50 * time.Microsecond
	e := NewEngine(1)
	q := NewQueue[int](e, 0)
	sem := NewSemaphore(e, 0)
	sig := NewSignal(e)
	var getTimedOut, sigTimedOut bool
	var semAt, joinAt, liveGetAt Time
	// A timed-out GetTimeout, then a fresh park on a Semaphore.
	e.Go("get-then-acquire", func(p *Proc) {
		_, ok := q.GetTimeout(p, timeout)
		getTimedOut = !ok
		sem.Acquire(p)
		semAt = p.Now()
	})
	// A live getter queued behind the stale entry.
	e.Go("live-get", func(p *Proc) {
		p.Sleep(15 * time.Microsecond)
		q.Get(p)
		liveGetAt = p.Now()
	})
	// A timed-out Signal.WaitTimeout, then a fresh park in Join.
	e.Go("wait-then-join", func(p *Proc) {
		sigTimedOut = !sig.WaitTimeout(p, timeout)
		p.Join(e.Go("child", func(c *Proc) { c.Sleep(release - timeout) }))
		joinAt = p.Now()
	})
	e.Go("poke", func(p *Proc) {
		p.Sleep(poke)
		q.TryPut(1)
		sig.Fire()
		p.Sleep(release - poke)
		sem.Release()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !getTimedOut || !sigTimedOut {
		t.Fatalf("first waits timed out: GetTimeout %v, WaitTimeout %v; want both", getTimedOut, sigTimedOut)
	}
	if semAt != Time(release) {
		t.Errorf("Acquire after a timed-out GetTimeout resumed at %v, want %v", semAt, Time(release))
	}
	if liveGetAt != Time(poke) {
		t.Errorf("live getter behind the stale entry resumed at %v, want %v", liveGetAt, Time(poke))
	}
	if joinAt != Time(release) {
		t.Errorf("Join after a timed-out WaitTimeout resumed at %v, want %v", joinAt, Time(release))
	}

	// A timed-out GetTimeout, then a Sleep: the stale entry must not cut
	// the sleep short. And a GetTimeout served before its deadline, then a
	// fresh park: the stale timer must not end that park.
	f := NewEngine(1)
	q3, q4 := NewQueue[int](f, 0), NewQueue[int](f, 0)
	sig2 := NewSignal(f)
	var sleepTimedOut, served bool
	var sleepAt, waitAt Time
	f.Go("get-then-sleep", func(p *Proc) {
		_, ok := q3.GetTimeout(p, timeout)
		sleepTimedOut = !ok
		p.Sleep(30 * time.Microsecond)
		sleepAt = p.Now()
	})
	f.Go("served-then-wait", func(p *Proc) {
		_, served = q4.GetTimeout(p, timeout)
		sig2.Wait(p)
		waitAt = p.Now()
	})
	f.Go("poke", func(p *Proc) {
		q4.TryPut(1)
		p.Sleep(poke)
		q3.TryPut(1)
		p.Sleep(release - poke)
		sig2.Fire()
	})
	if err := f.Run(); err != nil {
		t.Fatal(err)
	}
	if !sleepTimedOut || sleepAt != Time(40*time.Microsecond) {
		t.Errorf("GetTimeout then Sleep: timed out %v, resumed at %v; want true, 40us", sleepTimedOut, sleepAt)
	}
	if !served || waitAt != Time(release) {
		t.Errorf("served GetTimeout then Wait: served %v, resumed at %v; want true, %v", served, waitAt, Time(release))
	}
}

func TestJoinFinishedProcAfterCarrierReuse(t *testing.T) {
	e := NewEngine(1)
	var child, reuser *Proc
	e.Go("parent", func(p *Proc) {
		child = e.Go("child", func(c *Proc) {})
		p.Sleep(10 * time.Microsecond)
		reuser = e.Go("reuser", func(r *Proc) { r.Sleep(100 * time.Microsecond) })
		p.Sleep(10 * time.Microsecond)
		if reuser.c != child.c {
			t.Error("the second process did not reuse the finished one's carrier")
		}
		start := p.Now()
		p.Join(child)
		if p.Now() != start {
			t.Errorf("join of a finished process advanced time to %v", p.Now())
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestCallbackPanicSurfacesAsError(t *testing.T) {
	// Dispatched by the goroutine running Run: no process is involved.
	e := NewEngine(1)
	e.After(time.Microsecond, func() { panic("kaboom") })
	if err := e.Run(); err == nil || !strings.Contains(err.Error(), "callback panicked: kaboom") {
		t.Fatalf("engine-dispatched callback: err = %v", err)
	}

	// Dispatched by a sleeping process's coroutine: the panic must not be
	// charged to that process.
	base := runtime.NumGoroutine()
	f := NewEngine(1)
	var sleeper *Proc
	f.Go("sleeper", func(p *Proc) {
		sleeper = p
		f.After(time.Microsecond, func() { panic("kaboom") })
		p.Sleep(5 * time.Microsecond)
	})
	err := f.Run()
	if err == nil || !strings.Contains(err.Error(), "callback panicked: kaboom") {
		t.Fatalf("process-dispatched callback: err = %v", err)
	}
	if sleeper.Done() {
		t.Error("the process that dispatched the callback was ended by its panic")
	}
	f.Close()
	if n := settledGoroutines(base); n > base {
		t.Errorf("goroutines after Close = %d, want at most %d", n, base)
	}
}

func TestCloseUnwindsParkedAndUnstartedProcs(t *testing.T) {
	base := runtime.NumGoroutine()
	e := NewEngine(1)
	q := NewQueue[int](e, 0)
	unwound := 0
	for i := 0; i < 3; i++ {
		e.GoDaemon("server", func(p *Proc) {
			defer func() { unwound++ }()
			for {
				q.Get(p)
			}
		})
	}
	e.Go("sleeper", func(p *Proc) {
		// A deferred call that tries to wait during the unwinding ends the
		// process instead of blocking Close.
		defer func() {
			unwound++
			p.Sleep(time.Second)
			t.Error("Sleep returned while Close unwound the process")
		}()
		p.Sleep(time.Hour)
	})
	if err := e.RunUntil(Time(time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if n := settledGoroutines(base + 4); n > base+4 {
		t.Errorf("goroutines before Close = %d, want at most %d (one per parked process, no idle carrier)", n, base+4)
	}
	ran := false
	e.Go("unstarted", func(p *Proc) { ran = true })
	e.Close()
	if unwound != 4 {
		t.Errorf("Close ran %d deferred calls, want 4", unwound)
	}
	if e.Live() != 0 {
		t.Errorf("Live() = %d after Close", e.Live())
	}
	if n := settledGoroutines(base); n > base {
		t.Errorf("goroutines after Close = %d, want at most %d", n, base)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if ran {
		t.Error("a process spawned but not started before Close ran")
	}
}

// A process that calls runtime.Goexit (as t.FailNow does) ends the
// goroutine that called Run, as if it had called Goexit itself: its
// coroutine passes the Goexit on. The run records it as an error, and a
// later Close still unwinds the processes left parked.
func TestGoexitInProcessEndsRunCaller(t *testing.T) {
	base := runtime.NumGoroutine()
	e := NewEngine(1)
	unwound := false
	e.GoDaemon("parked", func(p *Proc) {
		defer func() { unwound = true }()
		NewSignal(e).Wait(p)
	})
	after := false
	e.Go("exits", func(p *Proc) {
		p.Sleep(time.Microsecond)
		runtime.Goexit()
		after = true
	})
	returned := false
	done := make(chan struct{})
	go func() {
		defer close(done)
		e.Run()
		returned = true
	}()
	<-done
	if returned || after {
		t.Errorf("after the Goexit: Run returned %v, process went on %v; want neither", returned, after)
	}
	if err := e.Err(); err == nil || !strings.Contains(err.Error(), `process "exits" called runtime.Goexit`) {
		t.Errorf("Err() = %v, want the Goexit recorded", err)
	}
	e.Close()
	if !unwound {
		t.Error("Close did not unwind the parked process")
	}
	if n := settledGoroutines(base); n > base {
		t.Errorf("goroutines after Close = %d, want at most %d", n, base)
	}
}

// Close ends a process even when it recovers the unwinding panic: the
// process function returns, and its carrier ends with it.
func TestCloseEndsProcessThatRecovers(t *testing.T) {
	base := runtime.NumGoroutine()
	e := NewEngine(1)
	var recovered any
	after := false
	e.GoDaemon("recoverer", func(p *Proc) {
		defer func() { recovered = recover() }()
		NewSignal(e).Wait(p)
		after = true
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	e.Close()
	if recovered != (unwind{}) || after {
		t.Errorf("recovered %v, went on after the wait %v; want unwind{}, false", recovered, after)
	}
	if e.Live() != 0 {
		t.Errorf("Live() = %d after Close", e.Live())
	}
	if n := settledGoroutines(base); n > base {
		t.Errorf("goroutines after Close = %d, want at most %d", n, base)
	}
}

// BenchmarkEngineEventThroughput measures the kernel's raw event rate:
// how many process wake/sleep switches per second the simulator sustains.
func BenchmarkEngineEventThroughput(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := NewEngine(1)
		const procs, ticks = 8, 2000
		for j := 0; j < procs; j++ {
			e.Go("ticker", func(p *Proc) {
				for k := 0; k < ticks; k++ {
					p.Sleep(time.Microsecond)
				}
			})
		}
		if err := e.Run(); err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(procs*ticks), "events/op")
	}
}
