package core

import (
	"slices"

	"repro/internal/mac"
)

// 802.11e/ac traffic-class integration (§3.3): 802.11ac re-purposes the
// four EDCA queues for MU-MIMO — when a class wins channel access it
// becomes the *primary* access class, and if it cannot fill the MU group,
// clients from *secondary* classes top it up. MIDAS's client selection
// runs within each class in priority order.

// acOrder lists access categories from highest to lowest priority.
var acOrder = [...]mac.AccessCategory{
	mac.ACVoice, mac.ACVideo, mac.ACBestEffort, mac.ACBackground,
}

// headAC returns the access category of backlogged client c's
// head-of-line packet.
func (q *Queue) headAC(c int) mac.AccessCategory { return mac.ACOfTID(q.fifos[c][0].TID) }

// PrimaryAC returns the highest-priority access category with backlog —
// the class that would win the AP's internal EDCA contention, hence the
// primary access class of the next TXOP. ok is false when the queue is
// empty.
func (q *Queue) PrimaryAC() (mac.AccessCategory, bool) {
	for _, ac := range acOrder {
		for _, c := range q.backlog {
			if q.headAC(c) == ac {
				return ac, true
			}
		}
	}
	return mac.ACBestEffort, false
}

// classOrder lists the access categories a TXOP with the given primary
// class draws from: the primary first, then the rest by priority.
func classOrder(primary mac.AccessCategory) [len(acOrder)]mac.AccessCategory {
	classes := [len(acOrder)]mac.AccessCategory{primary}
	n := 1
	for _, ac := range acOrder {
		if ac != primary {
			classes[n] = ac
			n++
		}
	}
	return classes
}

// SelectClientsEDCA is SelectClients with §3.3's class structure: for
// each available antenna the scheduler first considers the primary
// class's tagged clients, then falls back through secondary classes in
// priority order. Antenna order and distinctness rules are unchanged.
// The returned slice is controller-owned and valid until the next
// selection.
func (c *Controller) SelectClientsEDCA(antennas []int, primary mac.AccessCategory) []int {
	q := c.Queue
	clients := c.picked[:0]
	for _, a := range antennas {
		for _, ac := range classOrder(primary) {
			eligible := c.eligible[:0]
			for _, cl := range q.backlog {
				if q.headAC(cl) == ac && q.tagged(cl, a) && !slices.Contains(clients, cl) {
					eligible = append(eligible, cl)
				}
			}
			c.eligible = eligible
			if len(eligible) == 0 {
				continue
			}
			clients = append(clients, c.Cfg.Scheduler.Pick(eligible))
			break
		}
	}
	c.picked = clients
	return clients
}

// SelectClientsEDCA is the CAS baseline's class-aware selection: fill the
// group from the primary class's backlog, then secondary classes, with no
// antenna affinity (the 802.11ac behaviour §3.3 describes). The returned
// slice is controller-owned and valid until the next selection.
func (c *CASController) SelectClientsEDCA(primary mac.AccessCategory) []int {
	q := c.Queue
	clients := c.picked[:0]
	for _, ac := range classOrder(primary) {
		for len(clients) < c.maxStream {
			eligible := c.eligible[:0]
			for _, cl := range q.backlog {
				if q.headAC(cl) == ac && !slices.Contains(clients, cl) {
					eligible = append(eligible, cl)
				}
			}
			c.eligible = eligible
			if len(eligible) == 0 {
				break
			}
			clients = append(clients, c.Scheduler.Pick(eligible))
		}
	}
	c.picked = clients
	return clients
}
