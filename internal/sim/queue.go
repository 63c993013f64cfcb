package sim

import "time"

// fifo is a first-in first-out buffer that reuses its backing array, so
// a steady push/pop cycle allocates nothing.
type fifo[T any] struct {
	s    []T
	head int // s[:head] have been popped
}

func (f *fifo[T]) len() int { return len(f.s) - f.head }

func (f *fifo[T]) push(v T) {
	// Slide the live items down rather than grow, once the popped prefix
	// is at least half the array: the capacity stays within a small
	// multiple of the most items ever held.
	if len(f.s) == cap(f.s) && f.head > 0 && f.head >= len(f.s)/2 {
		n := copy(f.s, f.s[f.head:])
		clear(f.s[n:])
		f.s, f.head = f.s[:n], 0
	}
	f.s = append(f.s, v)
}

// pop removes and returns the head item; the fifo must not be empty.
func (f *fifo[T]) pop() T {
	v := f.s[f.head]
	var zero T
	f.s[f.head] = zero
	f.head++
	if f.head == len(f.s) {
		f.s, f.head = f.s[:0], 0
	}
	return v
}

// Queue is a FIFO channel analogue for simulation processes. A zero
// capacity means unbounded. Get blocks while the queue is empty; Put blocks
// while a bounded queue is full. Wakeups are FIFO among waiters.
type Queue[T any] struct {
	e       *Engine
	items   fifo[T]
	cap     int
	getters waitList
	putters waitList
	closed  bool
}

// NewQueue creates a queue on engine e with the given capacity
// (0 = unbounded).
func NewQueue[T any](e *Engine, capacity int) *Queue[T] {
	return &Queue[T]{e: e, cap: capacity}
}

// Len returns the number of buffered items.
func (q *Queue[T]) Len() int { return q.items.len() }

// Closed reports whether Close has been called.
func (q *Queue[T]) Closed() bool { return q.closed }

// Put appends v, blocking while a bounded queue is full. Putting to a
// closed queue panics.
func (q *Queue[T]) Put(p *Proc, v T) {
	for q.cap > 0 && q.items.len() >= q.cap {
		if q.closed {
			panic("sim: Put on closed queue")
		}
		p.wait(&q.putters, 0)
	}
	if q.closed {
		panic("sim: Put on closed queue")
	}
	q.items.push(v)
	q.getters.wakeOne(q.e)
}

// TryPut appends v without blocking; it reports whether the item was
// accepted.
func (q *Queue[T]) TryPut(v T) bool {
	if q.closed || (q.cap > 0 && q.items.len() >= q.cap) {
		return false
	}
	q.items.push(v)
	q.getters.wakeOne(q.e)
	return true
}

// Get removes and returns the head item, blocking while the queue is
// empty. ok is false if the queue was closed and drained.
func (q *Queue[T]) Get(p *Proc) (v T, ok bool) {
	for q.items.len() == 0 {
		if q.closed {
			return v, false
		}
		p.wait(&q.getters, 0)
	}
	v = q.items.pop()
	q.putters.wakeOne(q.e)
	return v, true
}

// GetTimeout is Get with a deadline: ok is false on timeout or on a closed,
// drained queue. A non-positive timeout blocks indefinitely.
func (q *Queue[T]) GetTimeout(p *Proc, timeout time.Duration) (v T, ok bool) {
	if timeout <= 0 {
		return q.Get(p)
	}
	deadline := q.e.now.Add(timeout)
	for q.items.len() == 0 {
		if q.closed {
			return v, false
		}
		remain := deadline.Sub(q.e.now)
		if remain <= 0 {
			return v, false
		}
		if p.wait(&q.getters, remain) {
			return v, false
		}
	}
	v = q.items.pop()
	q.putters.wakeOne(q.e)
	return v, true
}

// TryGet removes and returns the head item without blocking.
func (q *Queue[T]) TryGet() (v T, ok bool) {
	if q.items.len() == 0 {
		return v, false
	}
	v = q.items.pop()
	q.putters.wakeOne(q.e)
	return v, true
}

// Close marks the queue closed: blocked and future getters drain remaining
// items and then receive ok=false. Close is idempotent.
func (q *Queue[T]) Close() {
	if q.closed {
		return
	}
	q.closed = true
	q.getters.wakeAll(q.e)
	q.putters.wakeAll(q.e)
}
