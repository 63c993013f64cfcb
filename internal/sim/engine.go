// Package sim implements a deterministic discrete-event simulation kernel.
//
// The kernel provides a virtual clock, an event queue, and a cooperative
// process model: each process runs on a real goroutine, but exactly one
// goroutine runs at a time and a process gives up control only when it
// blocks (Sleep, queue operations, semaphores, ...). Events with equal
// timestamps fire in scheduling (FIFO) order, so every run is
// bit-reproducible for a given seed.
//
// Processes run on carrier goroutines. When a process finishes, its
// carrier goes to an idle list, and the next process to start reuses it
// together with its already-grown stack. RunUntil releases the idle
// carriers before it returns, so pooling keeps no extra goroutines.
//
// There is no central scheduler goroutine. A process that blocks, or a
// carrier whose process has finished, runs the dispatch loop itself: it
// pops events in order, runs callbacks inline, and hands control straight
// to the next process to resume. When that process is itself, it just
// returns. Control goes back to the goroutine that called Run only when
// the event queue is empty, the time limit is reached, or a process or
// callback panics. In steady state a switch costs one channel handoff and
// no heap allocation: events live by value in a 4-ary heap, and a park is
// tracked by a per-process wait generation.
//
// Close unwinds every process still parked or sleeping, so an engine
// leaves no goroutine behind; a process spawned but never started does
// not run.
//
// All NVMe-oAF subsystems (links, SSDs, transports, reactors) are built as
// processes on this kernel. Real bytes move through real data structures;
// only time is virtual, which gives microsecond-exact, GC-independent
// measurements that Go's wall-clock timers cannot provide at this scale.
package sim

import (
	"fmt"
	"hash/fnv"
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
// goroutine running Run, or a single carrier goroutine.
type Engine struct {
	now    Time
	seq    uint64
	limit  Time
	events eventHeap
	// yield hands control back to the goroutine running Run; carriers
	// also acknowledge on it that they have exited.
	yield  chan struct{}
	procs  []*Proc // spawned and not finished, indexed by Proc.idx
	idle   []*carrier
	seed   int64
	err    error
	fatal  bool
	closed bool
}

// NewEngine returns an engine with its clock at zero. The seed drives every
// random stream derived via Rand, so runs are reproducible per seed.
func NewEngine(seed int64) *Engine {
	return &Engine{yield: make(chan struct{}), seed: seed}
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
// starts a process, and returns that process. It returns nil when control
// must go back to the Run goroutine: the queue is empty, the next event
// lies beyond the limit, or a process or callback has panicked. A
// callback's panic is recorded as the run's error here, so it is never
// charged to the process whose goroutine happened to dispatch it.
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

// handoff passes control to q: back to the Run goroutine when q is nil,
// to q's carrier when q has started, or else to an idle or new carrier
// that starts q. The caller must touch no engine state afterwards until
// control comes back to it.
func (e *Engine) handoff(q *Proc) {
	switch {
	case q == nil:
		e.yield <- struct{}{}
	case q.c != nil:
		q.c.wake <- struct{}{}
	case len(e.idle) > 0:
		c := e.idle[len(e.idle)-1]
		e.idle[len(e.idle)-1] = nil
		e.idle = e.idle[:len(e.idle)-1]
		q.c, c.next = c, q
		c.wake <- struct{}{}
	default:
		q.c = &carrier{wake: make(chan struct{})}
		go q.c.carry(q)
	}
}

// releaseIdle ends every idle carrier, waiting for each to exit.
func (e *Engine) releaseIdle() {
	for _, c := range e.idle {
		c.next = nil
		c.wake <- struct{}{}
		<-e.yield
	}
	clear(e.idle)
	e.idle = e.idle[:0]
}

// carrier is a goroutine that runs processes one after another.
type carrier struct {
	wake chan struct{}
	next *Proc // set before an idle carrier is woken; nil releases it
}

// carry is a carrier goroutine's body. It runs p and every process it is
// given after it, until it is released.
func (c *carrier) carry(p *Proc) {
	e := p.engine
	for p != nil {
		p = c.run(p)
	}
	e.yield <- struct{}{} // acknowledge the release; touch nothing after it
}

// run executes p to completion and returns the process this carrier runs
// next, or nil once the carrier is released.
func (c *carrier) run(p *Proc) (next *Proc) {
	e := p.engine
	returned := false
	defer func() {
		r := recover()
		if e.closed {
			e.yield <- struct{}{} // unwound by Close: acknowledge, touch nothing after it
			return
		}
		if r != nil {
			e.fail(fmt.Errorf("sim: process %q panicked: %v", p.name, r))
		}
		e.finish(p)
		if returned || r != nil {
			next = c.after(e)
			return
		}
		// The process called runtime.Goexit (t.FailNow in a test). This
		// goroutine ends, so control moves on without it.
		e.handoff(e.next())
	}()
	p.fn(p)
	returned = true
	return nil
}

// after moves on once the carrier's process has finished. A process that
// has not started yet runs on this carrier at once; otherwise the carrier
// passes control on and waits idle until it is given a process to start
// or is released.
func (c *carrier) after(e *Engine) *Proc {
	q := e.next()
	if q != nil && q.c == nil {
		q.c = c
		return q
	}
	e.idle = append(e.idle, c)
	e.handoff(q)
	<-c.wake
	return c.next
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
	if p := e.next(); p != nil {
		e.handoff(p)
		<-e.yield
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

// Close ends the engine. It unwinds every process still parked or
// sleeping with runtime.Goexit, so their deferred calls run, and waits for
// each goroutine to exit before it moves on. A process spawned but never
// started does not run. Call Close from the goroutine that calls Run, once
// Run has returned; the engine must not be used afterwards. Close is
// idempotent.
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
			p.c.wake <- struct{}{}
			<-e.yield
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
