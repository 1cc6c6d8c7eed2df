// Package mac provides the 802.11 medium-access substrate the MIDAS and
// CAS access points are built on: a deterministic discrete-event engine,
// a radio medium with per-position physical carrier sensing and frame
// delivery, per-antenna NAV (virtual carrier sense) tables, and EDCA
// backoff state machines (§3.2.2–3.2.3, §3.3 of the paper).
package mac

import "time"

// Engine is a deterministic discrete-event simulator. Events scheduled at
// the same instant fire in scheduling order.
type Engine struct {
	now time.Duration
	pq  []*Timer // binary min-heap on (at, seq)
	seq uint64
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current simulation time.
func (e *Engine) Now() time.Duration { return e.now }

// Schedule runs fn after delay (relative to the current time). A negative
// delay is treated as zero. It returns a handle that can cancel the event.
func (e *Engine) Schedule(delay time.Duration, fn func()) *Timer {
	if delay < 0 {
		delay = 0
	}
	return e.At(e.now+delay, fn)
}

// At runs fn at absolute time t (clamped to now). The returned Timer is
// the queued event itself, so scheduling allocates one object.
func (e *Engine) At(t time.Duration, fn func()) *Timer {
	if t < e.now {
		t = e.now
	}
	ev := &Timer{at: t, seq: e.seq, fn: fn}
	e.seq++
	e.pq = append(e.pq, ev)
	e.up(len(e.pq) - 1)
	return ev
}

// Run processes events until the queue is empty or the clock would pass
// `until`. It returns the number of events executed.
func (e *Engine) Run(until time.Duration) int {
	n := 0
	for len(e.pq) > 0 {
		next := e.pq[0]
		if next.at > until {
			break
		}
		e.pop()
		if next.cancelled {
			continue
		}
		e.now = next.at
		fn := next.fn
		next.fn = nil // a fired event keeps nothing reachable
		fn()
		n++
	}
	if e.now < until {
		e.now = until
	}
	return n
}

// Pending returns the number of queued (possibly cancelled) events.
func (e *Engine) Pending() int { return len(e.pq) }

// Timer is a scheduled event and the handle that cancels it. An event is
// never reused, so a Timer kept past its event's firing cannot affect
// any later event.
type Timer struct {
	at        time.Duration
	seq       uint64
	fn        func()
	cancelled bool
}

// Cancel prevents the event from firing. Safe to call multiple times and
// after the event has fired.
func (t *Timer) Cancel() {
	if t != nil {
		t.cancelled = true
	}
}

// Cancelled reports whether Cancel was called.
func (t *Timer) Cancelled() bool { return t != nil && t.cancelled }

// before orders events by time, then by scheduling order.
func before(a, b *Timer) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// up restores the heap after appending at index i.
func (e *Engine) up(i int) {
	q := e.pq
	for i > 0 {
		parent := (i - 1) / 2
		if !before(q[i], q[parent]) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
}

// pop removes the earliest event.
func (e *Engine) pop() {
	q := e.pq
	last := len(q) - 1
	q[0] = q[last]
	q[last] = nil
	q = q[:last]
	e.pq = q
	for i := 0; ; {
		least := i
		if l := 2*i + 1; l < len(q) && before(q[l], q[least]) {
			least = l
		}
		if r := 2*i + 2; r < len(q) && before(q[r], q[least]) {
			least = r
		}
		if least == i {
			return
		}
		q[i], q[least] = q[least], q[i]
		i = least
	}
}
