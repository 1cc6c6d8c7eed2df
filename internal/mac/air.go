package mac

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"repro/internal/channel"
	"repro/internal/geom"
	"repro/internal/stats"
)

// Sensing thresholds. With the default channel parameters these give a
// carrier-sense/decode range of ≈20 m, matching the inter-AP distances of
// the paper's testbed (three APs 15 m apart overhear each other; the 8-AP
// layout caps overhearing at 3 APs).
const (
	// DefaultCSThresholdDBm is the energy level above which an antenna
	// senses the medium busy (preamble/energy detection reaches below
	// the decode sensitivity).
	DefaultCSThresholdDBm = -82.0
	// DefaultDecodeMinDBm is the minimum receive power for a frame's
	// contents (headers, Duration) to be decodable.
	DefaultDecodeMinDBm = -69.0
	// DefaultCaptureSINRdB is the minimum SINR for a control frame to
	// survive overlapping transmissions (capture effect).
	DefaultCaptureSINRdB = 6.0
)

// Rx describes one frame arrival at a listener.
type Rx struct {
	Data     []byte  // encoded frame bytes
	PowerDBm float64 // strongest-antenna receive power
	SINRdB   float64 // against the worst-case overlap interference
	// Decodable is false when the frame was below sensitivity or
	// collided; such frames still raised energy on the medium.
	Decodable bool
	From      int // transmission ID
	Sender    int // the transmitter's Tx.Sender tag
	Start     time.Duration
	End       time.Duration
}

// Listener receives every transmission that ends while it is registered.
type Listener struct {
	Pos geom.Point
	Fn  func(Rx)
}

// Tx describes one transmission: a set of transmitting antenna positions
// (one for SISO control frames; several for an MU PPDU), a per-antenna
// power, a duration and the encoded frame.
type Tx struct {
	Antennas []geom.Point
	PowerDBm float64
	Airtime  time.Duration
	Data     []byte
	// Sender is an opaque tag the medium copies into every Rx of this
	// transmission, so a transmitter can recognise its own frames.
	Sender int
}

// Air is the shared radio medium: it tracks active transmissions, answers
// physical carrier-sense queries at arbitrary positions, and delivers
// frames to listeners with a geometric (path-loss) link budget. Fading is
// deliberately excluded from the control plane — sensing in the paper's
// analysis is a property of positions — while the data plane computes
// SINRs from the full fading channel (see internal/sim).
//
// Every link power the medium uses is channel.Params.LinkPower, computed
// once per (transmit antenna, receive position, transmit power) and kept
// in a link table for the Air's lifetime; the table is cleared when P or
// Shadow is reassigned (or the field behind Shadow changes).
type Air struct {
	Eng            *Engine
	P              channel.Params
	CSThresholdDBm float64
	DecodeMinDBm   float64
	CaptureSINRdB  float64
	// Shadow, when non-nil, applies the deployment's shadow-fading field
	// to every sensing and control-frame link, making carrier sensing as
	// local (and as irregular) as the paper's office walls make it.
	Shadow *channel.ShadowField

	// listeners, active and watchers are ordered by id: ids only grow,
	// so registering appends and the slices stay sorted.
	listeners []*listener
	nextLis   int
	active    []*activeTx
	nextTx    int
	freeTx    []*activeTx // ended transmissions, ready for reuse
	watchers  []*watcher
	nextWatch int

	links linkTable
	// Linear-mW forms of CSThresholdDBm, DecodeMinDBm and
	// P.NoiseFloorDBm, recomputed only when the dBm value changes.
	csLin, decodeLin, noiseLin mwCache
}

// watcher tracks physical carrier-sense edges at one position.
type watcher struct {
	id   int
	pos  int32 // link-table position id
	fn   func(busy bool)
	busy bool
}

type listener struct {
	id  int
	pos int32 // link-table position id
	fn  func(Rx)
}

// emitter is what the link budget needs of a transmission: its antennas'
// link-table position ids and its transmit-power slot.
type emitter struct {
	ants []int32
	slot int
}

// activeTx is one transmission in flight. Records are recycled once
// the transmission has been delivered, together with their slices.
type activeTx struct {
	id     int
	em     emitter
	data   []byte
	sender int
	start  time.Duration
	end    time.Duration
	// overlap lists the transmissions that overlapped this one, in
	// ascending id order (a later overlapper always has a larger id).
	overlap []overlapSpan
	// spanAnts backs the overlap spans' antenna ids: a span copies its
	// interferer's ids, so no record shares slices with another.
	spanAnts []int32
	// done fires endTx for this record; it is bound once per record.
	done Timer
}

// overlapSpan records an interfering transmission and the interval over
// which it overlaps the owner.
type overlapSpan struct {
	em       emitter
	from, to time.Duration
}

// addOverlap records that the emitter em overlaps at over [from, to).
func (at *activeTx) addOverlap(em emitter, from, to time.Duration) {
	lo := len(at.spanAnts)
	at.spanAnts = append(at.spanAnts, em.ants...)
	ants := at.spanAnts[lo:len(at.spanAnts):len(at.spanAnts)]
	at.overlap = append(at.overlap, overlapSpan{em: emitter{ants: ants, slot: em.slot}, from: from, to: to})
}

// NewAir creates a medium bound to the engine with the given propagation
// parameters and default thresholds.
func NewAir(eng *Engine, p channel.Params) *Air {
	return &Air{
		Eng:            eng,
		P:              p,
		CSThresholdDBm: DefaultCSThresholdDBm,
		DecodeMinDBm:   DefaultDecodeMinDBm,
		CaptureSINRdB:  DefaultCaptureSINRdB,
	}
}

// table returns the link table, first clearing its memoised powers if
// the propagation inputs changed since they were computed.
func (a *Air) table() *linkTable {
	t := &a.links
	t.sync(a.P, a.Shadow)
	return t
}

// Watch registers a physical carrier-sense watcher at pos: fn fires on
// every busy/idle transition as transmissions start and end. The initial
// state is reported immediately. Returns the watcher id.
func (a *Air) Watch(pos geom.Point, fn func(busy bool)) int {
	id := a.nextWatch
	a.nextWatch++
	w := &watcher{id: id, pos: a.table().id(pos), fn: fn}
	w.busy = a.busyAt(w.pos)
	a.watchers = append(a.watchers, w)
	fn(w.busy)
	return id
}

// Unwatch removes a watcher.
func (a *Air) Unwatch(id int) {
	if i, ok := findID(a.watchers, id, func(w *watcher) int { return w.id }); ok {
		a.watchers = slices.Delete(a.watchers, i, i+1)
	}
}

// notifyWatchers re-evaluates every watcher after a medium change, in
// registration order.
func (a *Air) notifyWatchers() {
	for _, w := range a.watchers {
		if b := a.busyAt(w.pos); b != w.busy {
			w.busy = b
			w.fn(b)
		}
	}
}

// Listen registers a listener and returns its id.
func (a *Air) Listen(l Listener) int {
	id := a.nextLis
	a.nextLis++
	a.listeners = append(a.listeners, &listener{id: id, pos: a.table().id(l.Pos), fn: l.Fn})
	return id
}

// Unlisten removes a listener.
func (a *Air) Unlisten(id int) {
	if i, ok := findID(a.listeners, id, func(l *listener) int { return l.id }); ok {
		a.listeners = slices.Delete(a.listeners, i, i+1)
	}
}

// findID binary-searches an id-ordered slice.
func findID[T any](s []T, id int, idOf func(T) int) (int, bool) {
	i := sort.Search(len(s), func(i int) bool { return idOf(s[i]) >= id })
	return i, i < len(s) && idOf(s[i]) == id
}

// lookup returns the active transmission with the given id.
func (a *Air) lookup(id int) (*activeTx, bool) {
	i, ok := findID(a.active, id, func(at *activeTx) int { return at.id })
	if !ok {
		return nil, false
	}
	return a.active[i], true
}

// powerFrom returns the strongest-antenna receive power (linear mW) at
// position id to from the emitter.
func (t *linkTable) powerFrom(e emitter, to int32) float64 {
	best := 0.0
	for _, ant := range e.ants {
		if p := t.power(e.slot, ant, to); p > best {
			best = p
		}
	}
	return best
}

// sumPowerFrom returns the total receive power at position id to from
// all antennas of the emitter (interference adds across antennas).
func (t *linkTable) sumPowerFrom(e emitter, to int32) float64 {
	sum := 0.0
	for _, ant := range e.ants {
		sum += t.power(e.slot, ant, to)
	}
	return sum
}

// PowerAt returns the aggregate active transmit power (linear mW) at pos,
// excluding transmission id exclude (-1 for none).
func (a *Air) PowerAt(pos geom.Point, exclude int) float64 {
	return a.powerAt(a.table().id(pos), exclude)
}

// powerAt sums the active transmissions' power at position id to, in
// ascending transmission id order so float summation is deterministic.
// Like every unexported query it reads the link table as is: the
// exported entry points sync it first.
func (a *Air) powerAt(to int32, exclude int) float64 {
	t := &a.links
	sum := 0.0
	for _, at := range a.active {
		if at.id == exclude {
			continue
		}
		sum += t.sumPowerFrom(at.em, to)
	}
	return sum
}

// Busy reports whether the medium is physically sensed busy at pos.
func (a *Air) Busy(pos geom.Point) bool {
	return a.busyAt(a.table().id(pos))
}

func (a *Air) busyAt(to int32) bool {
	return a.powerAt(to, -1) >= a.csLin.get(a.CSThresholdDBm)
}

// ActiveCount returns the number of in-flight transmissions.
func (a *Air) ActiveCount() int { return len(a.active) }

// StartTx begins a transmission. Delivery to every listener is scheduled
// at the end of the airtime; the SINR each listener sees uses the
// worst-case set of transmissions that overlapped anywhere in the frame's
// lifetime, which is conservative in the same way real preamble/payload
// collisions are. It returns the transmission id.
func (a *Air) StartTx(tx Tx) (int, error) {
	if len(tx.Antennas) == 0 {
		return 0, fmt.Errorf("mac: transmission with no antennas")
	}
	if tx.Airtime <= 0 {
		return 0, fmt.Errorf("mac: non-positive airtime %v", tx.Airtime)
	}
	id := a.nextTx
	a.nextTx++
	now := a.Eng.Now()
	at := a.newActiveTx()
	at.id = id
	at.em = a.emitterOf(tx, at.em.ants[:0])
	at.data = tx.Data
	at.sender = tx.Sender
	at.start = now
	at.end = now + tx.Airtime
	// Mutual overlap bookkeeping with everything currently active.
	for _, other := range a.active {
		to := at.end
		if other.end < to {
			to = other.end
		}
		other.addOverlap(at.em, now, to)
		at.addOverlap(other.em, now, to)
	}
	a.active = append(a.active, at)
	at.done.Reset(tx.Airtime)
	a.notifyWatchers()
	return id, nil
}

// newActiveTx returns an emptied record, recycled when one is free.
func (a *Air) newActiveTx() *activeTx {
	if n := len(a.freeTx); n > 0 {
		at := a.freeTx[n-1]
		a.freeTx[n-1] = nil
		a.freeTx = a.freeTx[:n-1]
		return at
	}
	at := &activeTx{}
	at.done.Bind(a.Eng, func() { a.endTx(at) })
	return at
}

// emitterOf interns a transmission's antennas (into ants, reusing its
// storage) and transmit power, syncing the link table first.
func (a *Air) emitterOf(tx Tx, ants []int32) emitter {
	t := a.table()
	e := emitter{ants: ants, slot: t.slot(tx.PowerDBm)}
	for _, p := range tx.Antennas {
		e.ants = append(e.ants, t.id(p))
	}
	return e
}

// endTx retires a transmission, delivers it to every listener and
// recycles its record.
func (a *Air) endTx(at *activeTx) {
	t := a.table()
	if i, ok := findID(a.active, at.id, func(at *activeTx) int { return at.id }); ok {
		a.active = slices.Delete(a.active, i, i+1)
	}
	a.notifyWatchers()
	noise := a.noiseLin.get(a.P.NoiseFloorDBm)
	minPower := a.decodeLin.get(a.DecodeMinDBm)
	for _, l := range a.listeners {
		sig := t.powerFrom(at.em, l.pos)
		interf := 0.0
		for _, sp := range at.overlap {
			interf += t.sumPowerFrom(sp.em, l.pos)
		}
		sinr := stats.DB(sig / (noise + interf))
		rx := Rx{
			Data:      at.data,
			PowerDBm:  stats.DBm(sig),
			SINRdB:    sinr,
			Decodable: sig >= minPower && sinr >= a.CaptureSINRdB,
			From:      at.id,
			Sender:    at.sender,
			Start:     at.start,
			End:       at.end,
		}
		l.fn(rx)
	}
	at.data = nil
	at.overlap = at.overlap[:0]
	at.spanAnts = at.spanAnts[:0]
	a.freeTx = append(a.freeTx, at)
}

// DecodeRange returns the free-space distance at which a single antenna
// at full per-antenna power falls to the decode threshold — the nominal
// overhearing range of the medium (walls shorten it per link).
func (a *Air) DecodeRange() float64 {
	return a.P.RangeAt(a.DecodeMinDBm - a.P.NoiseFloorDBm)
}

// CSRange returns the free-space distance at which transmissions stop
// being sensed.
func (a *Air) CSRange() float64 {
	return a.P.RangeAt(a.CSThresholdDBm - a.P.NoiseFloorDBm)
}

// OverlapInterference returns, for an active transmission id, the total
// power (linear mW) at pos from the transmissions that have overlapped it
// so far. The MU-MIMO data plane samples this just before a burst ends to
// include other-cell interference in its stream SINRs.
func (a *Air) OverlapInterference(id int, pos geom.Point) float64 {
	at, ok := a.lookup(id)
	if !ok {
		return 0
	}
	t := a.table()
	to := t.id(pos)
	sum := 0.0
	for _, sp := range at.overlap {
		sum += t.sumPowerFrom(sp.em, to)
	}
	return sum
}

// WeightedInterference returns the time-averaged interference power
// (linear mW) at pos over the active transmission id's airtime: each
// overlapping transmission contributes its power scaled by the fraction
// of the frame it actually overlapped. This is the right average for a
// long data burst's Shannon rate; control-frame decoding keeps the
// worst-case OverlapInterference.
func (a *Air) WeightedInterference(id int, pos geom.Point) float64 {
	at, ok := a.lookup(id)
	if !ok {
		return 0
	}
	dur := at.end - at.start
	if dur <= 0 {
		return 0
	}
	t := a.table()
	to := t.id(pos)
	sum := 0.0
	for _, sp := range at.overlap {
		frac := float64(sp.to-sp.from) / float64(dur)
		if frac < 0 {
			frac = 0
		}
		if frac > 1 {
			frac = 1
		}
		sum += t.sumPowerFrom(sp.em, to) * frac
	}
	return sum
}

// OverlapCount returns the number of transmissions that have overlapped
// the active transmission id so far.
func (a *Air) OverlapCount(id int) int {
	at, ok := a.lookup(id)
	if !ok {
		return 0
	}
	return len(at.overlap)
}

// TxSignalAt returns the strongest-antenna receive power (linear mW) at
// pos from the active transmission id, or 0 if it is not active.
func (a *Air) TxSignalAt(id int, pos geom.Point) float64 {
	at, ok := a.lookup(id)
	if !ok {
		return 0
	}
	t := a.table()
	return t.powerFrom(at.em, t.id(pos))
}

// linkTable memoises channel.Params.LinkPower for one medium. Every
// position the medium sees — watcher and listener positions, transmit
// antennas, and the positions of ad-hoc queries — is interned once to a
// small dense id, and each distinct transmit power to a slot, so a
// lookup is three slice indexings instead of a hash of the link's five
// floats. The key is the exact position: moved or new clients simply get
// new ids and nothing needs invalidating. Only the propagation inputs
// (Params and the shadow field) invalidate memoised powers; position ids
// and power slots stay valid across that reset.
type linkTable struct {
	p         channel.Params
	shadow    *channel.ShadowField
	shadowVal channel.ShadowField // *shadow when the powers were computed

	ids  map[geom.Point]int32
	pos  []geom.Point
	dbms []uint64 // transmit powers (float64 bits), by slot
	// rows[slot][from][to] is the link power from position id from to
	// position id to; NaN marks an entry not yet computed. Rows exist
	// only for positions that have transmitted.
	rows [][][]float64
}

// sync clears the memoised powers when p or the shadow field differ from
// the inputs they were computed with.
func (t *linkTable) sync(p channel.Params, f *channel.ShadowField) {
	if t.p == p && t.shadow == f && (f == nil || *f == t.shadowVal) {
		return
	}
	t.p, t.shadow = p, f
	if f != nil {
		t.shadowVal = *f
	}
	for i := range t.rows {
		t.rows[i] = nil
	}
}

// id interns a position.
func (t *linkTable) id(p geom.Point) int32 {
	if id, ok := t.ids[p]; ok {
		return id
	}
	if t.ids == nil {
		t.ids = map[geom.Point]int32{}
	}
	id := int32(len(t.pos))
	t.ids[p] = id
	t.pos = append(t.pos, p)
	return id
}

// slot interns a transmit power.
func (t *linkTable) slot(dbm float64) int {
	bits := math.Float64bits(dbm)
	for i, b := range t.dbms {
		if b == bits {
			return i
		}
	}
	t.dbms = append(t.dbms, bits)
	t.rows = append(t.rows, nil)
	return len(t.dbms) - 1
}

// power returns the link power from position id from to position id to
// at the slot's transmit power.
func (t *linkTable) power(slot int, from, to int32) float64 {
	if rows := t.rows[slot]; int(from) < len(rows) {
		if row := rows[from]; int(to) < len(row) {
			if v := row[to]; v == v {
				return v
			}
		}
	}
	return t.fill(slot, from, to)
}

// fill computes, stores and returns one link power, growing the slot's
// rows to cover every position interned so far.
func (t *linkTable) fill(slot int, from, to int32) float64 {
	rows := t.rows[slot]
	for len(rows) <= int(from) {
		rows = append(rows, nil)
	}
	row := rows[from]
	for len(row) < len(t.pos) {
		row = append(row, math.NaN())
	}
	v := t.p.LinkPower(t.shadow, t.pos[from], t.pos[to], math.Float64frombits(t.dbms[slot]))
	row[to] = v
	rows[from] = row
	t.rows[slot] = rows
	return v
}

// mwCache holds stats.Milliwatt of the last dBm value it was asked for.
type mwCache struct {
	dbm, mw float64
	ok      bool
}

func (c *mwCache) get(dbm float64) float64 {
	if !c.ok || c.dbm != dbm {
		c.dbm, c.mw, c.ok = dbm, stats.Milliwatt(dbm), true
	}
	return c.mw
}
