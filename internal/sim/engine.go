// Package sim implements a deterministic discrete-event simulation kernel.
//
// The kernel provides a virtual clock, an event queue, and a cooperative
// process model: each process runs as a coroutine, exactly one of them
// runs at a time, and a process gives up control only when it blocks
// (Sleep, queue operations, semaphores, ...). Events with equal
// timestamps fire in scheduling (FIFO) order, so every run is
// bit-reproducible for a given seed.
//
// Processes run on carriers: coroutines made with iter.Pull, which the
// goroutine that calls Run resumes from one dispatch loop. A process that
// blocks runs the dispatch step itself: it pops events in order, runs
// callbacks inline, and finds the next process to resume. When that
// process is itself, it just returns. Otherwise it yields that process to
// the dispatch loop, which resumes its carrier, so a process switch costs
// two coroutine switches, no channel operation and no heap allocation:
// events live by value in a 4-ary heap, and a park is tracked by a
// per-process wait generation. The loop returns when the event queue is
// empty, the time limit is reached, or a process or callback panics.
//
// When a process finishes, its carrier starts the next process at once if
// that one is due and has not started; otherwise the carrier goes to an
// idle list, and a later process reuses it together with its
// already-grown stack. RunUntil releases the idle carriers before it
// returns, so pooling keeps no extra goroutines.
//
// Close stops the carrier of every process still parked or sleeping. The
// process unwinds through a private sentinel panic that its carrier
// recovers, so its deferred calls run and an engine leaves no goroutine
// behind; a process spawned but never started does not run. A process
// that calls runtime.Goexit (t.FailNow in a test) ends the goroutine that
// called Run, because iter.Pull passes a Goexit on to the caller.
//
// All NVMe-oAF subsystems (links, SSDs, transports, reactors) are built as
// processes on this kernel. Real bytes move through real data structures;
// only time is virtual, which gives microsecond-exact, GC-independent
// measurements that Go's wall-clock timers cannot provide at this scale.
package sim

import (
	"fmt"
	"hash/fnv"
	"iter"
	"math/rand"
	"sort"
	"time"
)

// Time is an absolute virtual timestamp in nanoseconds since the start of
// the simulation.
type Time int64

// MaxTime is the largest representable virtual timestamp.
const MaxTime = Time(1<<62 - 1)

// Nanoseconds returns the timestamp as an integer nanosecond count.
func (t Time) Nanoseconds() int64 { return int64(t) }

// Seconds returns the timestamp in seconds.
func (t Time) Seconds() float64 { return float64(t) / 1e9 }

// Micros returns the timestamp in microseconds.
func (t Time) Micros() float64 { return float64(t) / 1e3 }

// Add returns the timestamp shifted by d.
func (t Time) Add(d time.Duration) Time { return t + Time(d) }

// Sub returns the duration between two timestamps.
func (t Time) Sub(u Time) time.Duration { return time.Duration(t - u) }

func (t Time) String() string { return fmt.Sprintf("%.3fus", float64(t)/1e3) }

// event is a single entry in the engine's priority queue. Either fn is
// set and runs inline, or p is resumed (started, if it has not run yet).
// A nonzero gen marks a timeout: it resumes p only while p is still in
// the park of that generation and no waker has won it.
type event struct {
	at  Time
	seq uint64
	fn  func()
	p   *Proc
	gen uint64
}

func (a *event) before(b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// eventHeap is a 4-ary min-heap of events stored by value, ordered by
// (at, seq). The order is total, so the heap's shape cannot change which
// event fires next.
type eventHeap []event

func (h *eventHeap) push(ev event) {
	s := append(*h, ev)
	i := len(s) - 1
	for i > 0 {
		up := (i - 1) / 4
		if !ev.before(&s[up]) {
			break
		}
		s[i] = s[up]
		i = up
	}
	s[i] = ev
	*h = s
}

func (h *eventHeap) pop() event {
	s := *h
	top := s[0]
	n := len(s) - 1
	last := s[n]
	s[n] = event{}
	s = s[:n]
	if n > 0 {
		i := 0
		for {
			c := 4*i + 1
			if c >= n {
				break
			}
			m := c
			for j := c + 1; j < min(c+4, n); j++ {
				if s[j].before(&s[m]) {
					m = j
				}
			}
			if !s[m].before(&last) {
				break
			}
			s[i] = s[m]
			i = m
		}
		s[i] = last
	}
	*h = s
	return top
}

// Engine owns the virtual clock and the event queue and drives all
// processes. Exactly one flow of control is active at any instant: the
// dispatch loop in RunUntil, or a single carrier coroutine.
type Engine struct {
	now    Time
	seq    uint64
	limit  Time
	events eventHeap
	// pending is the process a yielding carrier asks the dispatch loop to
	// resume next; nil ends the loop.
	pending *Proc
	procs   []*Proc // spawned and not finished, indexed by Proc.idx
	idle    []*carrier
	seed    int64
	err     error
	fatal   bool
	closed  bool
}

// NewEngine returns an engine with its clock at zero. The seed drives every
// random stream derived via Rand, so runs are reproducible per seed.
func NewEngine(seed int64) *Engine {
	return &Engine{seed: seed}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Seed returns the seed the engine was created with.
func (e *Engine) Seed() int64 { return e.seed }

// Rand returns a deterministic random stream derived from the engine seed
// and the stream name. Distinct names yield independent streams, so adding
// a new consumer does not perturb existing ones.
func (e *Engine) Rand(stream string) *rand.Rand {
	h := fnv.New64a()
	fmt.Fprint(h, stream)
	return rand.New(rand.NewSource(e.seed ^ int64(h.Sum64())))
}

// schedule inserts an event at absolute time t (clamped to now).
func (e *Engine) schedule(t Time, ev event) {
	if t < e.now {
		t = e.now
	}
	ev.at = t
	ev.seq = e.seq
	e.seq++
	e.events.push(ev)
}

// After schedules fn to run at Now()+d. fn executes in engine context; it
// may spawn processes or schedule further events but must not block.
func (e *Engine) After(d time.Duration, fn func()) {
	e.schedule(e.now.Add(d), event{fn: fn})
}

// At schedules fn at the absolute virtual time t (or now, if t is past).
func (e *Engine) At(t Time, fn func()) {
	e.schedule(t, event{fn: fn})
}

// Go spawns a new process running fn. The process starts at the current
// virtual time, after already-scheduled events at this time fire.
func (e *Engine) Go(name string, fn func(p *Proc)) *Proc {
	return e.spawn(name, fn, false)
}

// GoDaemon spawns a background service process (device channel servers,
// connection reactors). Daemons parked with no pending events do not
// trigger the deadlock check: an idle server is not a hung simulation.
func (e *Engine) GoDaemon(name string, fn func(p *Proc)) *Proc {
	return e.spawn(name, fn, true)
}

func (e *Engine) spawn(name string, fn func(p *Proc), daemon bool) *Proc {
	p := &Proc{engine: e, name: name, fn: fn, daemon: daemon, idx: len(e.procs)}
	e.procs = append(e.procs, p)
	e.schedule(e.now, event{p: p})
	return p
}

// finish retires a process whose function has returned and wakes its
// joiners.
func (e *Engine) finish(p *Proc) {
	p.done = true
	last := e.procs[len(e.procs)-1]
	e.procs[p.idx], last.idx = last, p.idx
	e.procs[len(e.procs)-1] = nil
	e.procs = e.procs[:len(e.procs)-1]
	p.joiners.wakeAll(e)
}

// wakeWaiter wins w's park, if it is still the process's current one and
// no other waker or timer has won it, and schedules the process to resume
// at the current time. It reports whether the park was won.
func (e *Engine) wakeWaiter(w waiter) bool {
	p := w.p
	if p.waitGen != w.gen || p.consumed {
		return false
	}
	p.consumed = true
	p.parked = false
	e.schedule(e.now, event{p: p})
	return true
}

func (e *Engine) fail(err error) {
	if e.err == nil {
		e.err = err
	}
	e.fatal = true
}

// next runs events in order, callbacks inline, until one resumes or
// starts a process, and returns that process. It returns nil when the
// dispatch loop must end: the queue is empty, the next event lies beyond
// the limit, or a process or callback has panicked. A callback's panic is
// recorded as the run's error here, so it is never charged to the process
// that happened to dispatch it.
func (e *Engine) next() (p *Proc) {
	defer func() {
		if r := recover(); r != nil {
			e.fail(fmt.Errorf("sim: callback panicked: %v", r))
			p = nil
		}
	}()
	for !e.fatal && len(e.events) > 0 {
		if e.events[0].at > e.limit {
			e.now = e.limit
			return nil
		}
		ev := e.events.pop()
		e.now = ev.at
		switch {
		case ev.fn != nil:
			ev.fn()
		case ev.p.done:
		case ev.gen == 0:
			return ev.p
		case ev.gen == ev.p.waitGen && !ev.p.consumed:
			ev.p.consumed, ev.p.timedOut = true, true
			return ev.p
		}
	}
	return nil
}

// carrier is a coroutine that runs processes one after another. Only the
// dispatch loop in RunUntil resumes it, and it gives control back by
// yielding, so exactly one of them runs at a time.
type carrier struct {
	e      *Engine
	resume func() (struct{}, bool)
	stop   func()
	yield  func(struct{}) bool
	next   *Proc // the process to start, set before an idle carrier resumes
}

// unwind is the panic value that ends a process whose carrier Close stops.
// A runtime.Goexit cannot do it: iter.Pull passes a Goexit on to the
// goroutine that resumed the coroutine.
type unwind struct{}

// carrierFor gives the unstarted process p an idle carrier, or a new one.
func (e *Engine) carrierFor(p *Proc) *carrier {
	var c *carrier
	if n := len(e.idle); n > 0 {
		c = e.idle[n-1]
		e.idle[n-1] = nil
		e.idle = e.idle[:n-1]
	} else {
		c = &carrier{e: e}
		c.resume, c.stop = iter.Pull(c.body)
	}
	c.next, p.c = p, c
	return c
}

// releaseIdle ends every idle carrier.
func (e *Engine) releaseIdle() {
	for _, c := range e.idle {
		c.stop()
	}
	clear(e.idle)
	e.idle = e.idle[:0]
}

// body is a carrier coroutine's function. It runs its first process and,
// after each one finishes, the next process at once when that one is due
// and has not started; otherwise it goes idle and yields the next process
// to the dispatch loop, which may later give it another process to start.
// It returns once it is stopped.
func (c *carrier) body(yield func(struct{}) bool) {
	c.yield = yield
	e := c.e
	p := c.next
	for c.run(p) {
		p = e.next()
		if p != nil && p.c == nil {
			p.c = c
			continue
		}
		e.idle = append(e.idle, c)
		e.pending = p
		if !yield(struct{}{}) {
			return
		}
		p = c.next
	}
}

// run executes p to completion and reports whether the carrier may go on:
// false once Close has unwound p. A process that calls runtime.Goexit
// (t.FailNow in a test) ends this coroutine, and iter.Pull passes the
// Goexit on to the goroutine running RunUntil.
func (c *carrier) run(p *Proc) (more bool) {
	e := c.e
	returned := false
	defer func() {
		r := recover()
		if e.closed {
			more = false // r is unwind, or nil if p recovered it
			return
		}
		switch {
		case r != nil:
			e.fail(fmt.Errorf("sim: process %q panicked: %v", p.name, r))
		case !returned:
			e.fail(fmt.Errorf("sim: process %q called runtime.Goexit", p.name))
		}
		e.finish(p)
		more = true
	}()
	p.fn(p)
	returned = true
	return true
}

// Run drives the simulation until no events remain or a process panics. It
// returns an error for panics and for deadlock (processes parked forever).
func (e *Engine) Run() error { return e.RunUntil(MaxTime) }

// RunUntil drives the simulation until the event queue is exhausted or the
// next event lies beyond the limit; in the latter case the clock is set to
// the limit, the event stays queued, and no deadlock check is performed.
// A panic in a process or in an After/At callback stops the run and is
// returned as its error.
func (e *Engine) RunUntil(limit Time) error {
	e.limit = limit
	for p := e.next(); p != nil; p = e.pending {
		c := p.c
		if c == nil {
			c = e.carrierFor(p)
		}
		e.pending = nil
		c.resume()
	}
	e.releaseIdle()
	if e.fatal || len(e.events) > 0 {
		return e.err
	}
	var stuck []string
	for _, p := range e.procs {
		if p.parked && !p.daemon {
			stuck = append(stuck, p.name)
		}
	}
	if len(stuck) > 0 {
		sort.Strings(stuck)
		return fmt.Errorf("sim: deadlock: %d process(es) parked with no pending events: %v", len(stuck), stuck)
	}
	return e.err
}

// Close ends the engine. It stops the carrier of every process still
// parked or sleeping: the process unwinds through a sentinel panic, so its
// deferred calls run, and the carrier ends before Close moves on. A
// deferred call that tries to block during the unwinding panics in turn,
// and a process that recovers the sentinel simply returns. A process
// spawned but never started does not run. Call Close once Run has
// returned, or once its goroutine has ended; the engine must not be used
// afterwards. Close is idempotent.
func (e *Engine) Close() {
	if e.closed {
		return
	}
	e.closed = true
	for len(e.procs) > 0 {
		p := e.procs[len(e.procs)-1]
		e.procs[len(e.procs)-1] = nil
		e.procs = e.procs[:len(e.procs)-1]
		p.done = true
		if p.c != nil {
			p.c.stop()
		}
	}
	e.releaseIdle()
	e.events = nil
}

// Live reports the number of processes that have been spawned and not yet
// finished.
func (e *Engine) Live() int { return len(e.procs) }

// Err returns the first process or callback panic recorded, if any.
func (e *Engine) Err() error { return e.err }
