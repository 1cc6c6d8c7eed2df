package main

import (
	"bufio"
	"encoding/json"
	"math"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed call into a layer. Parent is the ID of the span
// that caused it (0 for a root); Op ties together the spans of one
// operation (a job, a topology, a shard).
type Span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Dur returns the span's wall duration.
func (s Span) Dur() time.Duration { return time.Duration(s.End - s.Start) }

// Tracer keeps spans in memory until the run ends. A nil *Tracer is the
// untraced mode: every method is a no-op, so instrumented code paths
// cost one nil check when tracing is off.
type Tracer struct {
	epoch time.Time
	ids   atomic.Int64

	mu    sync.Mutex
	spans []Span
}

// NewTracer starts an empty trace whose timestamps count from now.
func NewTracer() *Tracer { return &Tracer{epoch: time.Now()} }

// NewID reserves a span ID, so a parent can hand its ID to children
// before its own span is recorded.
func (t *Tracer) NewID() int64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// Add records a finished span under a reserved ID.
func (t *Tracer) Add(id int64, name string, parent, op int64, start, end time.Time) {
	if t == nil {
		return
	}
	s := Span{ID: id, Parent: parent, Op: op, Name: name,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds()}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// Record records a finished span under a fresh ID.
func (t *Tracer) Record(name string, parent, op int64, start, end time.Time) {
	t.Add(t.NewID(), name, parent, op, start, end)
}

// timed runs fn inside a span when tracing.
func timed(tr *Tracer, name string, parent, op int64, fn func()) {
	if tr == nil {
		fn()
		return
	}
	t0 := time.Now()
	fn()
	tr.Record(name, parent, op, t0, time.Now())
}

// Spans returns a snapshot of the recorded spans.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// Named returns the recorded spans with the given name.
func (t *Tracer) Named(name string) []Span {
	var out []Span
	for _, s := range t.Spans() {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// WriteJSONL writes every span as one JSON object per line.
func (t *Tracer) WriteJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.Spans() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// SelfTimes returns each span's self time: its duration minus the part
// of its interval that its children cover (overlapping children count
// once).
func SelfTimes(spans []Span) map[int64]time.Duration {
	children := map[int64][]Span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.Dur() - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent Span, kids []Span) time.Duration {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end int64
	end = math.MinInt64
	for _, v := range ivs {
		if v.a > end {
			total += v.b - v.a
			end = v.b
		} else if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return time.Duration(total)
}

// spanStats sums the durations of the named spans.
func spanStats(spans []Span, name string) (n int, total time.Duration) {
	for _, s := range spans {
		if s.Name == name {
			n++
			total += s.Dur()
		}
	}
	return n, total
}

// meanSpan returns the mean duration of the named spans in the given
// unit (time.Millisecond, time.Microsecond, ...), 0 when none exist.
func meanSpan(spans []Span, name string, unit time.Duration) float64 {
	n, total := spanStats(spans, name)
	if n == 0 {
		return 0
	}
	return float64(total) / float64(n) / float64(unit)
}

// meanSelf returns the mean self time of the named spans in unit.
func meanSelf(spans []Span, name string, unit time.Duration) float64 {
	self := SelfTimes(spans)
	var n int
	var total time.Duration
	for _, s := range spans {
		if s.Name == name {
			n++
			total += self[s.ID]
		}
	}
	if n == 0 {
		return 0
	}
	return float64(total) / float64(n) / float64(unit)
}
