package core

import (
	"slices"
	"time"

	"repro/internal/mac"
)

// RSSIProvider supplies the long-term (fading-averaged) receive power a
// client sees from an antenna — the quantity MIDAS ranks antennas by for
// virtual packet tagging (§3.2.4). internal/channel's Model implements it
// via MeanRxPower.
type RSSIProvider interface {
	MeanRxPower(client, antenna int) float64
}

// TagAntennas returns the client's tagWidth best antennas (from the
// candidate set, by mean RSSI, strongest first). With tagWidth 2 this is
// the paper's default; 1 risks under-utilisation, all-antennas degrades
// to CAS behaviour (§3.2.4).
func TagAntennas(rssi RSSIProvider, client int, antennas []int, tagWidth int) []int {
	return appendTags(nil, rssi, client, antennas, tagWidth)
}

// appendTags appends TagAntennas' result to dst. It keeps the best
// tagWidth antennas seen so far in rank order and inserts each candidate
// into place; the ranking (mean RSSI, ties by lower index) is a total
// order, so this is the head of the fully sorted candidate list.
func appendTags(dst []int, rssi RSSIProvider, client int, antennas []int, tagWidth int) []int {
	n := len(dst)
	for _, a := range antennas {
		pa := rssi.MeanRxPower(client, a)
		i := len(dst)
		for i > n {
			b := dst[i-1]
			if pb := rssi.MeanRxPower(client, b); pa < pb || (pa == pb && a > b) {
				break
			}
			i--
		}
		if i-n >= tagWidth {
			continue
		}
		if len(dst)-n < tagWidth {
			dst = append(dst, 0)
		}
		copy(dst[i+1:], dst[i:len(dst)-1])
		dst[i] = a
	}
	return dst
}

// Config parameterises a MIDAS controller.
type Config struct {
	// Antennas are the AP's antenna indices (global, into the deployment).
	Antennas []int
	// TagWidth is the number of antennas tagged per packet (paper: 2).
	TagWidth int
	// WaitWindow is the opportunistic-selection wait for NAVs about to
	// expire (paper: one DIFS, §3.2.3).
	WaitWindow time.Duration
	// Scheduler is the client-selection policy (paper: DRR).
	Scheduler Scheduler
	// MaxStreams caps the MU-MIMO group size (≤ number of antennas).
	MaxStreams int
}

// DefaultConfig returns the paper's MIDAS parameters for the antenna set.
func DefaultConfig(antennas []int) Config {
	return Config{
		Antennas:   antennas,
		TagWidth:   2,
		WaitWindow: mac.DIFS,
		Scheduler:  NewDRRScheduler(),
		MaxStreams: len(antennas),
	}
}

// Controller is the MIDAS AP's decision layer: it owns the per-antenna
// NAV table, the tagged packet queue and the fairness state, and answers
// the two questions the station driver asks at each transmit opportunity:
// which antennas to use (§3.2.2–3.2.3) and which clients to serve
// (§3.2.4–3.2.5). It is deliberately free of event-loop plumbing so every
// policy is unit-testable; internal/sim drives it against the medium.
type Controller struct {
	Cfg   Config
	Navs  *mac.Table
	Queue *Queue

	// local maps a global antenna index to its position in Cfg.Antennas.
	local map[int]int

	// Selection scratch, reused by every TXOP: the returned antenna
	// and client slices stay valid until the next selection.
	idle, soon, set, antennas []int
	picked, eligible          []int
	popped                    []Packet
	tagSlab                   []int // see tagSlabLen
}

// NewController builds a controller with one NAV per antenna.
func NewController(cfg Config) *Controller {
	if cfg.MaxStreams <= 0 || cfg.MaxStreams > len(cfg.Antennas) {
		cfg.MaxStreams = len(cfg.Antennas)
	}
	if cfg.Scheduler == nil {
		cfg.Scheduler = NewDRRScheduler()
	}
	c := &Controller{
		Cfg:   cfg,
		Navs:  mac.NewTable(len(cfg.Antennas)),
		Queue: NewQueue(),
		local: make(map[int]int, len(cfg.Antennas)),
	}
	for i, a := range cfg.Antennas {
		c.local[a] = i
	}
	return c
}

// LocalIndex translates a global antenna index to the controller's NAV
// slot; ok is false for antennas that are not this AP's.
func (c *Controller) LocalIndex(antenna int) (int, bool) {
	i, ok := c.local[antenna]
	return i, ok
}

// Enqueue tags the packet with the client's best antennas and queues it.
func (c *Controller) Enqueue(p Packet, rssi RSSIProvider) {
	w := c.Cfg.TagWidth
	if cap(c.tagSlab)-len(c.tagSlab) < w {
		c.tagSlab = make([]int, 0, max(tagSlabLen, w))
	}
	n := len(c.tagSlab)
	c.tagSlab = appendTags(c.tagSlab, rssi, p.Client, c.Cfg.Antennas, w)
	if m := len(c.tagSlab); m > n {
		p.Tags = c.tagSlab[n:m:m]
	}
	c.Queue.Push(p)
}

// tagSlabLen is the size of the blocks packet tags are carved from: a
// packet's tags never change, so packets can share a block, and tagging
// allocates once per block instead of once per packet.
const tagSlabLen = 256

// UpdateNAV records an overheard reservation on one antenna (the antenna
// that physically decoded the frame). until is absolute simulation time.
func (c *Controller) UpdateNAV(antenna int, until time.Duration) {
	if i, ok := c.local[antenna]; ok {
		c.Navs.Update(i, until)
	}
}

// Selection is the outcome of one transmit opportunity.
type Selection struct {
	// Antennas are the global antenna indices to transmit from, ordered
	// by NAV expiry (primary antenna first).
	Antennas []int
	// WaitUntil is the absolute time transmission may begin (now when no
	// opportunistic waiting is needed).
	WaitUntil time.Duration
	// Clients are the selected clients, parallel to the antenna order in
	// which they were chosen (not an antenna-to-client mapping: all
	// selected antennas jointly precode to all selected clients, §3.2.5).
	Clients []int
}

// SelectAntennas performs opportunistic antenna selection (§3.2.3): given
// that `winner` (global index) just won channel access at time now, return
// the antennas to engage — all currently idle ones, plus any whose NAV
// expires within the wait window — and the time to wait until. physBusy,
// when non-nil, reports an antenna's physical carrier-sense state by local
// index; physically busy antennas are never engaged (their occupant's end
// time is unknown, so they do not qualify for the wait window either).
// The returned slice is controller-owned and valid until the next call.
func (c *Controller) SelectAntennas(winner int, now time.Duration, physBusy func(local int) bool) (antennas []int, waitUntil time.Duration) {
	waitUntil = now
	wl, ok := c.local[winner]
	if !ok {
		return nil, now
	}
	busy := func(k int) bool { return physBusy != nil && physBusy(k) && k != wl }
	c.idle = c.Navs.Idle(c.idle[:0], now)
	c.soon = c.Navs.ExpiringWithin(c.soon[:0], now, c.Cfg.WaitWindow)
	// idle and soon are disjoint and ascending, so only the winner can
	// appear twice.
	set := append(c.set[:0], wl)
	for _, k := range c.idle {
		if k != wl && !busy(k) {
			set = append(set, k)
		}
	}
	for _, k := range c.soon {
		if busy(k) {
			continue
		}
		if k != wl {
			set = append(set, k)
		}
		if exp := c.Navs.Expiry(k); exp > waitUntil {
			waitUntil = exp
		}
	}
	c.set = set
	antennas = c.Navs.ByExpiry(c.antennas[:0], set)
	c.antennas = antennas
	for i, k := range antennas {
		antennas[i] = c.Cfg.Antennas[k]
	}
	if len(antennas) > c.Cfg.MaxStreams {
		antennas = antennas[:c.Cfg.MaxStreams]
	}
	return antennas, waitUntil
}

// SelectClients performs antenna-specific, fairness-driven client
// selection (§3.2.5): antennas are visited in the given (NAV-expiry)
// order; for each, the scheduler picks among the backlogged clients whose
// head-of-line packet tags that antenna, excluding already-chosen clients.
// The returned client list has at most one client per antenna; antennas
// that found no eligible client contribute nothing (but still transmit as
// part of the precoded group).
func (c *Controller) SelectClients(antennas []int) []int {
	q := c.Queue
	var clients []int
	for _, a := range antennas {
		eligible := c.eligible[:0]
		for _, cl := range q.backlog {
			if q.tagged(cl, a) && !slices.Contains(clients, cl) {
				eligible = append(eligible, cl)
			}
		}
		c.eligible = eligible
		if len(eligible) == 0 {
			continue
		}
		clients = append(clients, c.Cfg.Scheduler.Pick(eligible))
	}
	return clients
}

// Dequeue removes the head packets for the served clients, returning them
// in client order given. The returned slice is controller-owned and valid
// until the next call.
func (c *Controller) Dequeue(clients []int) []Packet {
	c.popped = c.Queue.popHeads(c.popped[:0], clients)
	return c.popped
}

// FinishTXOP applies the fairness updates after serving `served` for txop.
func (c *Controller) FinishTXOP(served []int, txop time.Duration) {
	c.Cfg.Scheduler.Charge(served, c.Queue.backlog, txop)
}
