package mac

import (
	"math/rand"
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

// TestStaleTimerCannotCancelLaterEvent pins the Timer contract: a handle
// kept past its event's firing refers to that event alone, so cancelling
// it cannot cancel anything scheduled afterwards.
func TestStaleTimerCannotCancelLaterEvent(t *testing.T) {
	e := NewEngine()
	stale := e.Schedule(time.Microsecond, func() {})
	e.Run(2 * time.Microsecond)
	fired := 0
	for i := 0; i < 100; i++ {
		e.Schedule(time.Microsecond, func() { fired++ })
	}
	stale.Cancel()
	e.Run(time.Second)
	if fired != 100 {
		t.Errorf("%d of 100 later events fired after a stale Cancel", fired)
	}
}

// TestEngineOrderMatchesSort drives the heap with random times and
// cancellations and checks events fire in (time, scheduling) order.
func TestEngineOrderMatchesSort(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	e := NewEngine()
	type stamp struct {
		at  time.Duration
		seq int
	}
	var fired []stamp
	var want []stamp
	for i := 0; i < 2000; i++ {
		at := time.Duration(r.Intn(50)) * time.Microsecond
		s := stamp{at, i}
		tm := e.At(at, func() { fired = append(fired, s) })
		if r.Intn(4) == 0 {
			tm.Cancel()
			continue
		}
		want = append(want, s)
	}
	e.Run(time.Second)
	if len(fired) != len(want) {
		t.Fatalf("fired %d events, want %d", len(fired), len(want))
	}
	for i := 1; i < len(fired); i++ {
		p, c := fired[i-1], fired[i]
		if c.at < p.at || (c.at == p.at && c.seq < p.seq) {
			t.Fatalf("event %v fired after %v", c, p)
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

// TestEngineScheduleAllocs: scheduling and running an event costs at
// most the event itself.
func TestEngineScheduleAllocs(t *testing.T) {
	e := NewEngine()
	fn := func() {}
	const batch = 64
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < batch; i++ {
			e.Schedule(time.Duration(i%7)*time.Microsecond, fn)
		}
		e.Run(e.Now() + time.Millisecond)
	})
	if per := allocs / batch; per > 1 {
		t.Errorf("Engine.Schedule + Run allocate %v per event, want <= 1", per)
	}
}
