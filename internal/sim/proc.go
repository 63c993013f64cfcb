package sim

import "time"

// Proc is a simulation process: a function that runs cooperatively under
// the engine on a carrier coroutine. Blocking methods (Sleep, and the
// queue/semaphore operations that take a *Proc) suspend the process and
// pass control on until the wakeup condition fires.
//
// A Proc must only be used from its own process function (the function
// passed to Engine.Go).
type Proc struct {
	engine *Engine
	name   string
	fn     func(p *Proc)
	c      *carrier // nil until the process starts
	idx    int      // position in engine.procs while live
	done   bool
	daemon bool
	parked bool // parked with no timer: seen by the deadlock check
	// waitGen numbers the process's parks. A waiter entry or timeout
	// event from an earlier park carries an older generation and is
	// skipped; consumed marks the current park as won by a waker or its
	// timer, and timedOut says which.
	waitGen  uint64
	consumed bool
	timedOut bool
	joiners  waitList
}

// Daemon reports whether this is a background service process.
func (p *Proc) Daemon() bool { return p.daemon }

// Name returns the process name given at spawn time.
func (p *Proc) Name() string { return p.name }

// Engine returns the engine this process runs on.
func (p *Proc) Engine() *Engine { return p.engine }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.engine.now }

// Done reports whether the process function has returned.
func (p *Proc) Done() bool { return p.done }

// block gives up control until the process is resumed. The process runs
// the dispatch step itself: when the next process to resume is this one,
// block just returns; otherwise it yields that process to the dispatch
// loop. When Close stops the carrier, or the engine is already closed (a
// deferred call tried to wait while Close unwinds p), block panics with
// unwind, which the carrier recovers.
func (p *Proc) block() {
	e := p.engine
	if e.closed {
		panic(unwind{})
	}
	q := e.next()
	if q == p {
		return
	}
	e.pending = q
	if !p.c.yield(struct{}{}) {
		panic(unwind{})
	}
}

// Sleep suspends the process for the given virtual duration. Non-positive
// durations yield the processor: the process re-runs at the same timestamp
// after already-pending events.
func (p *Proc) Sleep(d time.Duration) {
	if d < 0 {
		d = 0
	}
	p.engine.schedule(p.engine.now.Add(d), event{p: p})
	p.block()
}

// Yield reschedules the process at the current timestamp behind all events
// already queued for this instant.
func (p *Proc) Yield() { p.Sleep(0) }

// wait registers the process on list and parks it until a waker wins the
// park via Engine.wakeWaiter. If timeout is positive a timer competes for
// the park; wait reports true if the timer won (the wait timed out). A
// non-positive timeout parks indefinitely.
func (p *Proc) wait(list *waitList, timeout time.Duration) (timedOut bool) {
	e := p.engine
	p.waitGen++
	p.consumed, p.timedOut = false, false
	list.push(waiter{p: p, gen: p.waitGen})
	if timeout > 0 {
		e.schedule(e.now.Add(timeout), event{p: p, gen: p.waitGen})
	} else {
		p.parked = true
	}
	p.block()
	return p.timedOut
}

// Join blocks until q has finished. Joining a finished process returns
// immediately.
func (p *Proc) Join(q *Proc) {
	if q.done {
		return
	}
	p.wait(&q.joiners, 0)
}

// JoinAll blocks until every process in qs has finished.
func (p *Proc) JoinAll(qs ...*Proc) {
	for _, q := range qs {
		p.Join(q)
	}
}

// waiter is one parked process in a wait list, tagged with the generation
// of the park it was registered for.
type waiter struct {
	p   *Proc
	gen uint64
}

// waitList is a FIFO of waiters. The head waiter sits inline, so the
// first park on a fresh Signal, Future or Proc allocates nothing; the
// overflow behind it is allocated when a second waiter arrives, and kept.
// The overflow is empty whenever the head slot is.
type waitList struct {
	first waiter // the head, when first.p != nil
	rest  *fifo[waiter]
}

func (l *waitList) push(w waiter) {
	if l.first.p == nil {
		l.first = w
		return
	}
	if l.rest == nil {
		l.rest = &fifo[waiter]{}
	}
	l.rest.push(w)
}

// pop removes the head waiter; ok is false when the list is empty.
func (l *waitList) pop() (w waiter, ok bool) {
	w = l.first
	if w.p == nil {
		return w, false
	}
	l.first = waiter{}
	if l.rest != nil && l.rest.len() > 0 {
		l.first = l.rest.pop()
	}
	return w, true
}

// wakeOne resumes the first waiter whose park is still live.
func (l *waitList) wakeOne(e *Engine) {
	for {
		w, ok := l.pop()
		if !ok || e.wakeWaiter(w) {
			return
		}
	}
}

// wakeAll resumes every live waiter in the list.
func (l *waitList) wakeAll(e *Engine) {
	if l.first.p != nil {
		e.wakeWaiter(l.first)
		l.first = waiter{}
	}
	if r := l.rest; r != nil {
		for _, w := range r.s[r.head:] {
			e.wakeWaiter(w)
		}
		clear(r.s)
		r.s, r.head = r.s[:0], 0
	}
}
