package mac

import (
	"testing"
	"time"
)

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Schedule(30*time.Microsecond, func() { order = append(order, 3) })
	e.Schedule(10*time.Microsecond, func() { order = append(order, 1) })
	e.Schedule(20*time.Microsecond, func() { order = append(order, 2) })
	n := e.Run(time.Second)
	if n != 3 {
		t.Fatalf("ran %d events", n)
	}
	for i, v := range order {
		if v != i+1 {
			t.Fatalf("order = %v", order)
		}
	}
}

func TestEngineFIFOAtSameInstant(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		e.Schedule(time.Microsecond, func() { order = append(order, i) })
	}
	e.Run(time.Second)
	for i, v := range order {
		if v != i {
			t.Fatalf("same-instant order = %v", order)
		}
	}
}

func TestEngineClockAdvances(t *testing.T) {
	e := NewEngine()
	var at time.Duration
	e.Schedule(42*time.Microsecond, func() { at = e.Now() })
	e.Run(time.Second)
	if at != 42*time.Microsecond {
		t.Errorf("event saw clock %v", at)
	}
	if e.Now() != time.Second {
		t.Errorf("Run should leave clock at `until`, got %v", e.Now())
	}
}

func TestEngineRunUntilBoundary(t *testing.T) {
	e := NewEngine()
	fired := false
	e.Schedule(100*time.Microsecond, func() { fired = true })
	e.Run(50 * time.Microsecond)
	if fired {
		t.Error("event beyond `until` must not fire")
	}
	e.Run(200 * time.Microsecond)
	if !fired {
		t.Error("event should fire on the second Run")
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	var log []time.Duration
	e.Schedule(10*time.Microsecond, func() {
		log = append(log, e.Now())
		e.Schedule(5*time.Microsecond, func() {
			log = append(log, e.Now())
		})
	})
	e.Run(time.Second)
	if len(log) != 2 || log[0] != 10*time.Microsecond || log[1] != 15*time.Microsecond {
		t.Errorf("log = %v", log)
	}
}

func TestEngineNegativeDelayClamps(t *testing.T) {
	e := NewEngine()
	fired := false
	e.Schedule(-5*time.Microsecond, func() { fired = true })
	e.Run(time.Microsecond)
	if !fired {
		t.Error("negative delay should fire immediately")
	}
}

func TestTimerCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	var tm Timer
	tm.Bind(e, func() { fired = true })
	if tm.Stop() {
		t.Error("Stop on a never-armed Timer reported a pending firing")
	}
	tm.Reset(10 * time.Microsecond)
	if e.Pending() != 1 {
		t.Errorf("Pending() = %d after Reset, want 1", e.Pending())
	}
	if !tm.Stop() {
		t.Error("Stop on an armed Timer should report the cancelled firing")
	}
	if e.Pending() != 0 {
		t.Errorf("Pending() = %d after Stop, want 0", e.Pending())
	}
	e.Run(time.Second)
	if fired {
		t.Error("stopped Timer fired")
	}
	if tm.Stop() { // idempotent
		t.Error("second Stop reported a pending firing")
	}
	tm.Reset(time.Microsecond) // a stopped Timer re-arms
	e.Run(2 * time.Second)
	if !fired {
		t.Error("re-armed Timer did not fire")
	}
}

// TestEnginePending: Pending counts live events only — a stopped Timer
// leaves the queue at once instead of lingering until its time.
func TestEnginePending(t *testing.T) {
	e := NewEngine()
	e.Schedule(time.Microsecond, func() {})
	e.Schedule(time.Microsecond, func() {})
	if e.Pending() != 2 {
		t.Errorf("Pending = %d", e.Pending())
	}
	var a, b Timer
	a.Bind(e, func() {})
	b.Bind(e, func() {})
	a.Reset(5 * time.Microsecond)
	b.Reset(3 * time.Microsecond)
	a.Reset(7 * time.Microsecond) // re-arming a queued Timer moves it
	if e.Pending() != 4 {
		t.Errorf("Pending with two armed Timers = %d, want 4", e.Pending())
	}
	a.Stop()
	if e.Pending() != 3 {
		t.Errorf("Pending after Stop = %d, want 3", e.Pending())
	}
	if n := e.Run(time.Second); n != 3 {
		t.Errorf("Run fired %d events, want 3", n)
	}
	if e.Pending() != 0 {
		t.Errorf("Pending after run = %d", e.Pending())
	}
}

func TestEngineManyEvents(t *testing.T) {
	e := NewEngine()
	count := 0
	var recur func()
	recur = func() {
		count++
		if count < 10000 {
			e.Schedule(time.Microsecond, recur)
		}
	}
	e.Schedule(0, recur)
	e.Run(time.Second)
	if count != 10000 {
		t.Errorf("count = %d", count)
	}
}
