// Package core implements the MIDAS access point's MAC-layer logic — the
// paper's §3.2 contribution — and the conventional CAS baseline it is
// evaluated against:
//
//   - virtual packet tagging: every queued packet carries its client's two
//     best antennas by long-term RSSI (§3.2.4);
//   - opportunistic antenna selection: when one antenna wins the channel,
//     wait up to a DIFS for other antennas whose NAVs are about to expire
//     (§3.2.3);
//   - antenna-specific, fairness-driven client selection with deficit
//     round robin (§3.2.5);
//   - the per-TXOP MU-MIMO pipeline of §3.2.1 (sounding → power-balanced
//     precoding → counter updates) expressed as a testable policy layer
//     that the network simulator (internal/sim) drives with events.
package core

import (
	"slices"
	"time"
)

// Packet is one queued downlink MPDU.
type Packet struct {
	Client   int
	TID      uint8
	Size     int   // payload bytes
	Tags     []int // preferred antennas (global indices), §3.2.4
	Enqueued time.Duration
	Seq      uint16
}

// Queue is the AP's downlink packet store: per-client FIFOs, with the
// 802.11e access-category split handled by the caller keeping one Queue
// per AC if desired. It supports the tag-filtered peeks MIDAS's client
// selection needs.
type Queue struct {
	fifos map[int][]Packet
	// backlog is the set of clients with a non-empty FIFO, ascending;
	// Push and Pop keep it current.
	backlog []int
	size    int
	seq     uint16
}

// NewQueue returns an empty queue.
func NewQueue() *Queue { return &Queue{fifos: map[int][]Packet{}} }

// Push appends a packet to its client's FIFO, assigning a sequence number.
func (q *Queue) Push(p Packet) {
	p.Seq = q.seq
	q.seq = (q.seq + 1) & 0x0fff
	f := q.fifos[p.Client]
	if len(f) == 0 {
		i, _ := slices.BinarySearch(q.backlog, p.Client)
		q.backlog = slices.Insert(q.backlog, i, p.Client)
	}
	q.fifos[p.Client] = append(f, p)
	q.size++
}

// Len returns the total number of queued packets.
func (q *Queue) Len() int { return q.size }

// LenFor returns the number of packets queued for one client.
func (q *Queue) LenFor(client int) int { return len(q.fifos[client]) }

// Head returns the head-of-line packet for a client without removing it.
func (q *Queue) Head(client int) (Packet, bool) {
	f := q.fifos[client]
	if len(f) == 0 {
		return Packet{}, false
	}
	return f[0], true
}

// Pop removes and returns the head-of-line packet for a client. The FIFO
// shifts in place, so a client's storage is reused for its whole life.
func (q *Queue) Pop(client int) (Packet, bool) {
	f := q.fifos[client]
	if len(f) == 0 {
		return Packet{}, false
	}
	p := f[0]
	n := copy(f, f[1:])
	f[n] = Packet{}
	q.fifos[client] = f[:n]
	q.size--
	if n == 0 {
		i, _ := slices.BinarySearch(q.backlog, client)
		q.backlog = slices.Delete(q.backlog, i, i+1)
	}
	return p, true
}

// popHeads pops the head packet of each client in turn, appending the
// packets to dst.
func (q *Queue) popHeads(dst []Packet, clients []int) []Packet {
	for _, cl := range clients {
		if p, ok := q.Pop(cl); ok {
			dst = append(dst, p)
		}
	}
	return dst
}

// Backlogged returns the clients with at least one queued packet, in
// ascending client order (deterministic).
func (q *Queue) Backlogged() []int { return slices.Clone(q.backlog) }

// EligibleFor returns the backlogged clients whose head-of-line packet is
// tagged with the given antenna — the tag filter of §3.2.4. A packet with
// no tags is eligible on every antenna (the CAS behaviour).
func (q *Queue) EligibleFor(antenna int) []int {
	var out []int
	for _, c := range q.backlog {
		if q.tagged(c, antenna) {
			out = append(out, c)
		}
	}
	return out
}

// tagged reports whether backlogged client c's head-of-line packet is
// eligible on the antenna.
func (q *Queue) tagged(c, antenna int) bool {
	tags := q.fifos[c][0].Tags
	return len(tags) == 0 || slices.Contains(tags, antenna)
}
