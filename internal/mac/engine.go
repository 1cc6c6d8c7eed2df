// Package mac provides the 802.11 medium-access substrate the MIDAS and
// CAS access points are built on: a deterministic discrete-event engine,
// a radio medium with per-position physical carrier sensing and frame
// delivery, per-antenna NAV (virtual carrier sense) tables, and EDCA
// backoff state machines (§3.2.2–3.2.3, §3.3 of the paper).
package mac

import "time"

// Engine is a deterministic discrete-event simulator. Events fire in
// (time, arming order): events armed for the same instant fire in the
// order they were armed.
//
// An event is either a one-shot function (Schedule, At), which cannot be
// cancelled, or an owner-held Timer, which can be stopped and re-armed.
// One-shot events come from an engine-owned free list and return to it
// when they fire; since no handle to them escapes, recycling is safe and
// steady-state scheduling allocates nothing.
type Engine struct {
	now  time.Duration
	pq   []*Timer // binary min-heap on (at, seq)
	seq  uint64
	free []*Timer // fired one-shot events, ready for reuse
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current simulation time.
func (e *Engine) Now() time.Duration { return e.now }

// Schedule runs fn after delay (relative to the current time). A negative
// delay is treated as zero.
func (e *Engine) Schedule(delay time.Duration, fn func()) {
	if delay < 0 {
		delay = 0
	}
	e.At(e.now+delay, fn)
}

// At runs fn at absolute time t (clamped to now).
func (e *Engine) At(t time.Duration, fn func()) {
	var ev *Timer
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
	} else {
		ev = &Timer{eng: e, oneShot: true}
	}
	ev.fn = fn
	ev.ResetAt(t)
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
		e.remove(0)
		e.now = next.at
		fn := next.fn
		if next.oneShot {
			next.fn = nil // a recycled event keeps nothing reachable
			e.free = append(e.free, next)
		}
		fn()
		n++
	}
	if e.now < until {
		e.now = until
	}
	return n
}

// Pending returns the number of queued events. A stopped Timer leaves
// the queue at once, so every counted event will fire.
func (e *Engine) Pending() int { return len(e.pq) }

// Timer is a cancellable event held by its owner, usually as a struct
// field: Bind it once, then arm it with Reset or ResetAt and cancel it
// with Stop as often as needed. A Timer is queued at most once; arming
// a queued Timer moves it. The zero Timer must be bound before use.
type Timer struct {
	eng *Engine
	fn  func()
	at  time.Duration
	seq uint64
	// pos is 1 + the Timer's heap index while queued, 0 otherwise.
	pos     int
	oneShot bool
}

// Bind attaches the Timer to an engine and the function it runs when it
// fires. Bind an unqueued Timer only.
func (t *Timer) Bind(e *Engine, fn func()) {
	t.eng, t.fn = e, fn
}

// Reset arms the Timer to fire after delay (negative delays are zero),
// replacing any pending firing.
func (t *Timer) Reset(delay time.Duration) {
	if delay < 0 {
		delay = 0
	}
	t.ResetAt(t.eng.now + delay)
}

// ResetAt arms the Timer to fire at absolute time at (clamped to now),
// replacing any pending firing. The Timer is ordered as if scheduled
// now: after every event already armed for the same instant.
func (t *Timer) ResetAt(at time.Duration) {
	e := t.eng
	if at < e.now {
		at = e.now
	}
	t.at, t.seq = at, e.seq
	e.seq++
	if t.pos == 0 {
		e.pq = append(e.pq, t)
		t.pos = len(e.pq)
		e.up(len(e.pq) - 1)
		return
	}
	e.fix(t.pos - 1)
}

// Stop cancels the pending firing, if any, and reports whether there was
// one. Stopping a fired or never-armed Timer does nothing.
func (t *Timer) Stop() bool {
	if t.pos == 0 {
		return false
	}
	t.eng.remove(t.pos - 1)
	return true
}

// before orders events by time, then by arming order.
func before(a, b *Timer) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// swap exchanges two heap slots and their back-pointers.
func (e *Engine) swap(i, j int) {
	q := e.pq
	q[i], q[j] = q[j], q[i]
	q[i].pos = i + 1
	q[j].pos = j + 1
}

// up moves the event at index i toward the root; it reports whether the
// event moved.
func (e *Engine) up(i int) bool {
	start := i
	q := e.pq
	for i > 0 {
		parent := (i - 1) / 2
		if !before(q[i], q[parent]) {
			break
		}
		e.swap(i, parent)
		i = parent
	}
	return i != start
}

// down moves the event at index i toward the leaves.
func (e *Engine) down(i int) {
	q := e.pq
	for {
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
		e.swap(i, least)
		i = least
	}
}

// fix restores the heap after the key at index i changed.
func (e *Engine) fix(i int) {
	if !e.up(i) {
		e.down(i)
	}
}

// remove takes the event at index i off the heap.
func (e *Engine) remove(i int) {
	q := e.pq
	last := len(q) - 1
	ev := q[i]
	if i != last {
		e.swap(i, last)
	}
	q[last] = nil
	e.pq = q[:last]
	ev.pos = 0
	if i != last {
		e.fix(i)
	}
}
