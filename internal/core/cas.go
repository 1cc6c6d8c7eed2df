package core

import (
	"slices"
	"time"

	"repro/internal/mac"
)

// CASController is the conventional 802.11ac baseline (§5.1): a single
// channel state for the whole AP — one NAV coupling every antenna — no
// packet tagging, and client selection over all backlogged clients. The
// station driver uses it exactly like a MIDAS Controller, which keeps the
// end-to-end comparison apples-to-apples: only the §3.2 policies differ.
type CASController struct {
	Antennas  []int
	Queue     *Queue
	Scheduler Scheduler
	nav       mac.NAV
	maxStream int

	// Selection scratch, reused by every TXOP.
	antennas, picked, eligible []int
	popped                     []Packet
}

// NewCASController builds the baseline controller.
func NewCASController(antennas []int, sched Scheduler, maxStreams int) *CASController {
	if sched == nil {
		sched = NewDRRScheduler()
	}
	if maxStreams <= 0 || maxStreams > len(antennas) {
		maxStreams = len(antennas)
	}
	return &CASController{
		Antennas:  antennas,
		Queue:     NewQueue(),
		Scheduler: sched,
		maxStream: maxStreams,
	}
}

// Enqueue queues a packet without tags (every antenna is equivalent in a
// CAS, so tagging is meaningless).
func (c *CASController) Enqueue(p Packet) {
	p.Tags = nil
	c.Queue.Push(p)
}

// UpdateNAV records an overheard reservation. The antenna argument is
// ignored: a CAS AP keeps a single medium state (§3.2.2's
// channel-state-coupling limitation).
func (c *CASController) UpdateNAV(_ int, until time.Duration) { c.nav.Update(until) }

// NAVBusy reports the single virtual carrier-sense state.
func (c *CASController) NAVBusy(now time.Duration) bool { return c.nav.Busy(now) }

// NAVExpiry returns the single NAV's expiry.
func (c *CASController) NAVExpiry() time.Duration { return c.nav.Expiry() }

// SelectAntennas engages all antennas unconditionally — the CAS MAC
// treats the array as one unit. The returned slice is controller-owned
// and valid until the next call.
func (c *CASController) SelectAntennas() []int {
	c.antennas = append(c.antennas[:0], c.Antennas...)
	return c.antennas
}

// SelectClients picks up to maxStreams distinct backlogged clients using
// the scheduler, with no antenna affinity.
func (c *CASController) SelectClients() []int {
	var clients []int
	for len(clients) < c.maxStream {
		eligible := c.eligible[:0]
		for _, cl := range c.Queue.backlog {
			if !slices.Contains(clients, cl) {
				eligible = append(eligible, cl)
			}
		}
		c.eligible = eligible
		if len(eligible) == 0 {
			break
		}
		clients = append(clients, c.Scheduler.Pick(eligible))
	}
	return clients
}

// Dequeue removes the head packets for the served clients. The returned
// slice is controller-owned and valid until the next call.
func (c *CASController) Dequeue(clients []int) []Packet {
	c.popped = c.Queue.popHeads(c.popped[:0], clients)
	return c.popped
}

// FinishTXOP applies fairness accounting.
func (c *CASController) FinishTXOP(served []int, txop time.Duration) {
	c.Scheduler.Charge(served, c.Queue.backlog, txop)
}
