package mac

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"

	"repro/internal/channel"
	"repro/internal/geom"
	"repro/internal/stats"
)

// directPowerAt is PowerAt written out with channel.Params.LinkPower, in
// the medium's summation order: transmissions by ascending id, antennas
// in order, each transmission's antennas summed before it is added.
func directPowerAt(p channel.Params, f *channel.ShadowField, txs []Tx, pos geom.Point) float64 {
	sum := 0.0
	for _, tx := range txs {
		s := 0.0
		for _, ant := range tx.Antennas {
			s += p.LinkPower(f, ant, pos, tx.PowerDBm)
		}
		sum += s
	}
	return sum
}

func directSignal(p channel.Params, f *channel.ShadowField, tx Tx, pos geom.Point) float64 {
	best := 0.0
	for _, ant := range tx.Antennas {
		if v := p.LinkPower(f, ant, pos, tx.PowerDBm); v > best {
			best = v
		}
	}
	return best
}

func randPoint(r *rand.Rand) geom.Point {
	return geom.Pt(r.Float64()*80-40, r.Float64()*80-40)
}

// TestLinkTableMatchesLinkPower is the link table's property test: every
// power the medium answers with equals channel.Params.LinkPower bit for
// bit, over random positions, antenna sets and transmit powers, warm or
// cold, and after Shadow or P is reassigned (or the field behind Shadow
// is changed in place) mid-run.
func TestLinkTableMatchesLinkPower(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		e := NewEngine()
		a := NewAir(e, channel.Default())
		a.Shadow = a.P.NewField(seed)
		dbms := []float64{a.P.TxPowerDBm, 20, r.Float64()*30 - 5}
		var txs []Tx
		var ids []int
		for i := 0; i < 4; i++ {
			tx := Tx{PowerDBm: dbms[r.Intn(len(dbms))], Airtime: time.Second}
			for k := 0; k < 1+r.Intn(4); k++ {
				tx.Antennas = append(tx.Antennas, randPoint(r))
			}
			id, err := a.StartTx(tx)
			if err != nil {
				t.Fatal(err)
			}
			txs, ids = append(txs, tx), append(ids, id)
		}
		probes := []geom.Point{txs[0].Antennas[0]}
		for i := 0; i < 30; i++ {
			probes = append(probes, randPoint(r))
		}
		check := func(stage string) {
			t.Helper()
			for pass := 0; pass < 2; pass++ { // cold, then warm
				for _, pos := range probes {
					if got, want := a.PowerAt(pos, -1), directPowerAt(a.P, a.Shadow, txs, pos); got != want {
						t.Fatalf("seed %d %s: PowerAt(%v) = %v, want %v", seed, stage, pos, got, want)
					}
					if got, want := a.PowerAt(pos, ids[1]), directPowerAt(a.P, a.Shadow, append(txs[:1:1], txs[2:]...), pos); got != want {
						t.Fatalf("seed %d %s: PowerAt(%v, exclude) = %v, want %v", seed, stage, pos, got, want)
					}
					for i, id := range ids {
						if got, want := a.TxSignalAt(id, pos), directSignal(a.P, a.Shadow, txs[i], pos); got != want {
							t.Fatalf("seed %d %s: TxSignalAt(%d, %v) = %v, want %v", seed, stage, id, pos, got, want)
						}
					}
					// The last transmission was overlapped by all earlier ones.
					if got, want := a.OverlapInterference(ids[3], pos), directPowerAt(a.P, a.Shadow, txs[:3], pos); got != want {
						t.Fatalf("seed %d %s: OverlapInterference(%v) = %v, want %v", seed, stage, pos, got, want)
					}
				}
			}
		}
		check("initial field")
		a.Shadow = a.P.NewField(seed + 1000)
		check("reassigned Shadow")
		a.Shadow.WallDB = 3
		check("field changed in place")
		a.P.PathLossExp = 3.1
		check("reassigned P")
		a.Shadow = nil
		check("free space")
	}
}

// TestLinkTableDelivery checks frame delivery reads the table too: the
// receive power and SINR a listener sees are the direct expressions.
func TestLinkTableDelivery(t *testing.T) {
	e := NewEngine()
	a := NewAir(e, channel.Default())
	a.Shadow = a.P.NewField(7)
	pos := geom.Pt(9, 4)
	var got []Rx
	a.Listen(Listener{Pos: pos, Fn: func(rx Rx) { got = append(got, rx) }})
	victim := Tx{Antennas: []geom.Point{geom.Pt(0, 0), geom.Pt(2, 1)}, PowerDBm: 24, Airtime: 100 * time.Microsecond}
	interferer := Tx{Antennas: []geom.Point{geom.Pt(20, 3)}, PowerDBm: 18, Airtime: 40 * time.Microsecond}
	a.StartTx(victim)
	e.Schedule(10*time.Microsecond, func() { a.StartTx(interferer) })
	e.Run(time.Second)
	if len(got) != 2 {
		t.Fatalf("delivered %d frames, want 2", len(got))
	}
	rx := got[1] // the victim ends last
	sig := directSignal(a.P, a.Shadow, victim, pos)
	interf := directPowerAt(a.P, a.Shadow, []Tx{interferer}, pos)
	if want := stats.DB(sig / (a.P.NoiseLinear() + interf)); rx.SINRdB != want {
		t.Errorf("SINR = %v dB, want %v", rx.SINRdB, want)
	}
	if want := stats.DBm(sig); rx.PowerDBm != want {
		t.Errorf("receive power = %v dBm, want %v", rx.PowerDBm, want)
	}
}

// TestStaleTimerCannotCancelLaterEvent pins the Timer contract: a Timer
// is queued only while its owner has it armed, so stopping one that has
// fired, or was never armed, cancels nothing else — not the one-shot
// events that reuse the fired event storage, nor other Timers.
func TestStaleTimerCannotCancelLaterEvent(t *testing.T) {
	e := NewEngine()
	var fired, unarmed Timer
	fired.Bind(e, func() {})
	unarmed.Bind(e, func() {})
	fired.Reset(time.Microsecond)
	e.Schedule(time.Microsecond, func() {}) // its storage is recycled below
	e.Run(2 * time.Microsecond)
	count := 0
	for i := 0; i < 100; i++ {
		e.Schedule(time.Duration(i%5)*time.Microsecond, func() { count++ })
	}
	others := make([]Timer, 10)
	for i := range others {
		others[i].Bind(e, func() { count++ })
		others[i].Reset(time.Duration(i%3) * time.Microsecond)
	}
	if fired.Stop() || unarmed.Stop() {
		t.Error("Stop on a fired or unarmed Timer reported a pending firing")
	}
	if e.Pending() != 110 {
		t.Errorf("Pending = %d after stale Stops, want 110", e.Pending())
	}
	e.Run(time.Second)
	if count != 110 {
		t.Errorf("%d of 110 later events fired after stale Stops", count)
	}
}

// TestEngineOrderMatchesSort is a random differential test of the event
// queue against a reference model that keeps every live event in a list
// and fires them sorted by (time, arming order). The operations mix
// one-shot schedules (including ones in the past, which clamp to now),
// Timer arming, re-arming while queued, Stop while queued, Stop after
// firing, and partial Runs.
func TestEngineOrderMatchesSort(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		checkEngineAgainstModel(t, seed)
	}
}

func checkEngineAgainstModel(t *testing.T, seed int64) {
	r := rand.New(rand.NewSource(seed))
	e := NewEngine()
	type ev struct {
		at    time.Duration
		seq   int
		label int
	}
	var live []ev // the reference model's queue
	seq := 0
	var now time.Duration
	var fired []int
	arm := func(at time.Duration, label int) {
		if at < now {
			at = now
		}
		live = append(live, ev{at, seq, label})
		seq++
	}
	unqueue := func(label int) bool {
		for i, x := range live {
			if x.label == label {
				live = append(live[:i], live[i+1:]...)
				return true
			}
		}
		return false
	}
	const nTimers = 8
	timers := make([]Timer, nTimers)
	for k := range timers {
		k := k
		timers[k].Bind(e, func() { fired = append(fired, -1-k) })
	}
	nextLabel := 0
	for step := 0; step < 3000; step++ {
		at := now + time.Duration(r.Intn(60)-10)*time.Microsecond
		switch op := r.Intn(10); {
		case op < 4:
			label := nextLabel
			nextLabel++
			e.At(at, func() { fired = append(fired, label) })
			arm(at, label)
		case op < 7:
			k := r.Intn(nTimers)
			timers[k].ResetAt(at)
			unqueue(-1 - k)
			arm(at, -1-k)
		case op < 9:
			k := r.Intn(nTimers)
			if got, want := timers[k].Stop(), unqueue(-1-k); got != want {
				t.Fatalf("seed %d step %d: Stop = %v, model says %v", seed, step, got, want)
			}
		default:
			until := now + time.Duration(r.Intn(40))*time.Microsecond
			fired = fired[:0]
			e.Run(until)
			sort.Slice(live, func(i, j int) bool {
				if live[i].at != live[j].at {
					return live[i].at < live[j].at
				}
				return live[i].seq < live[j].seq
			})
			var want []int
			for len(live) > 0 && live[0].at <= until {
				want = append(want, live[0].label)
				live = live[1:]
			}
			now = until
			if !slices.Equal(fired, want) {
				t.Fatalf("seed %d step %d: fired %v, want %v", seed, step, fired, want)
			}
		}
		if e.Pending() != len(live) {
			t.Fatalf("seed %d step %d: Pending = %d, model has %d live events", seed, step, e.Pending(), len(live))
		}
	}
}

// Allocation guards for the DES hot path (run by `make alloc-guard`).

// TestAirQueriesZeroAlloc: with a warm link table, carrier sensing and
// power queries allocate nothing.
func TestAirQueriesZeroAlloc(t *testing.T) {
	e := NewEngine()
	a := NewAir(e, channel.Default())
	a.Shadow = a.P.NewField(5)
	for i := 0; i < 3; i++ {
		a.StartTx(Tx{Antennas: []geom.Point{geom.Pt(float64(5*i), 0), geom.Pt(float64(5*i), 2)}, PowerDBm: 24, Airtime: time.Second})
	}
	pos := geom.Pt(12, 3)
	a.Busy(pos) // warm the table
	allocs := testing.AllocsPerRun(500, func() {
		_ = a.Busy(pos)
		_ = a.PowerAt(pos, 1)
	})
	if allocs != 0 {
		t.Errorf("Air.Busy + PowerAt allocate %v/op with a warm table, want 0", allocs)
	}
}

// TestEngineScheduleAllocs: in steady state, scheduling and running an
// event, or re-arming a Timer, allocates nothing — fired one-shot events
// are recycled and Timers live in their owners.
func TestEngineScheduleAllocs(t *testing.T) {
	e := NewEngine()
	fn := func() {}
	var tm Timer
	tm.Bind(e, fn)
	const batch = 64
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < batch; i++ {
			e.Schedule(time.Duration(i%7)*time.Microsecond, fn)
			tm.Reset(time.Duration(i%5) * time.Microsecond)
		}
		e.Run(e.Now() + time.Millisecond)
	})
	if per := allocs / batch; per != 0 {
		t.Errorf("Engine.Schedule + Timer.Reset + Run allocate %v per event, want 0", per)
	}
}
