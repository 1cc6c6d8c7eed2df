package core

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"

	"repro/internal/mac"
)

// The reference definitions below are the map- and copy-based forms the
// queue and the controllers used before the backlog set and the
// selection scratch existed. The property tests check the fast paths
// against them on random workloads.

// refBacklogged scans every FIFO for clients with queued packets.
func refBacklogged(q *Queue) []int {
	var out []int
	for c, f := range q.fifos {
		if len(f) > 0 {
			out = append(out, c)
		}
	}
	sort.Ints(out)
	return out
}

func refEligibleFor(q *Queue, antenna int) []int {
	var out []int
	for _, c := range refBacklogged(q) {
		p, _ := q.Head(c)
		if len(p.Tags) == 0 {
			out = append(out, c)
			continue
		}
		for _, tag := range p.Tags {
			if tag == antenna {
				out = append(out, c)
				break
			}
		}
	}
	return out
}

func refBackloggedByAC(q *Queue) map[mac.AccessCategory][]int {
	out := map[mac.AccessCategory][]int{}
	for _, c := range refBacklogged(q) {
		p, _ := q.Head(c)
		ac := mac.ACOfTID(p.TID)
		out[ac] = append(out[ac], c)
	}
	return out
}

func refPrimaryAC(q *Queue) (mac.AccessCategory, bool) {
	byAC := refBackloggedByAC(q)
	for _, ac := range acOrder {
		if len(byAC[ac]) > 0 {
			return ac, true
		}
	}
	return mac.ACBestEffort, false
}

func refEligibleForWithAC(q *Queue, antenna int, ac mac.AccessCategory) []int {
	var out []int
	for _, c := range refEligibleFor(q, antenna) {
		p, _ := q.Head(c)
		if mac.ACOfTID(p.TID) == ac {
			out = append(out, c)
		}
	}
	return out
}

func refClasses(primary mac.AccessCategory) []mac.AccessCategory {
	classes := []mac.AccessCategory{primary}
	for _, ac := range acOrder {
		if ac != primary {
			classes = append(classes, ac)
		}
	}
	return classes
}

func refSelectClientsEDCA(c *Controller, antennas []int, primary mac.AccessCategory) []int {
	chosen := map[int]bool{}
	var clients []int
	for _, a := range antennas {
		for _, ac := range refClasses(primary) {
			var filtered []int
			for _, cl := range refEligibleForWithAC(c.Queue, a, ac) {
				if !chosen[cl] {
					filtered = append(filtered, cl)
				}
			}
			if len(filtered) == 0 {
				continue
			}
			pick := c.Cfg.Scheduler.Pick(filtered)
			chosen[pick] = true
			clients = append(clients, pick)
			break
		}
	}
	return clients
}

func refCASSelectClientsEDCA(c *CASController, primary mac.AccessCategory) []int {
	chosen := map[int]bool{}
	var clients []int
	byAC := refBackloggedByAC(c.Queue)
	for _, ac := range refClasses(primary) {
		for len(clients) < c.maxStream {
			var eligible []int
			for _, cl := range byAC[ac] {
				if !chosen[cl] {
					eligible = append(eligible, cl)
				}
			}
			if len(eligible) == 0 {
				break
			}
			pick := c.Scheduler.Pick(eligible)
			chosen[pick] = true
			clients = append(clients, pick)
		}
	}
	return clients
}

func refTagAntennas(rssi RSSIProvider, client int, antennas []int, tagWidth int) []int {
	if tagWidth <= 0 || len(antennas) == 0 {
		return nil
	}
	ranked := append([]int(nil), antennas...)
	sort.SliceStable(ranked, func(a, b int) bool {
		pa := rssi.MeanRxPower(client, ranked[a])
		pb := rssi.MeanRxPower(client, ranked[b])
		if pa != pb {
			return pa > pb
		}
		return ranked[a] < ranked[b]
	})
	if tagWidth > len(ranked) {
		tagWidth = len(ranked)
	}
	return ranked[:tagWidth]
}

func refSelectAntennas(c *Controller, winner int, now time.Duration, physBusy func(int) bool) ([]int, time.Duration) {
	waitUntil := now
	wl, ok := c.local[winner]
	if !ok {
		return nil, now
	}
	busy := func(k int) bool { return physBusy != nil && physBusy(k) && k != wl }
	idle := c.Navs.Idle(nil, now)
	soon := c.Navs.ExpiringWithin(nil, now, c.Cfg.WaitWindow)
	set := []int{wl}
	seen := map[int]bool{wl: true}
	for _, k := range append(idle, soon...) {
		if !seen[k] && !busy(k) {
			seen[k] = true
			set = append(set, k)
		}
	}
	for _, k := range soon {
		if busy(k) {
			continue
		}
		if exp := c.Navs.Expiry(k); exp > waitUntil {
			waitUntil = exp
		}
	}
	var antennas []int
	for _, k := range c.Navs.ByExpiry(nil, set) {
		antennas = append(antennas, c.Cfg.Antennas[k])
	}
	if len(antennas) > c.Cfg.MaxStreams {
		antennas = antennas[:c.Cfg.MaxStreams]
	}
	return antennas, waitUntil
}

// schedulerPair returns two schedulers of one policy in the same state,
// so the fast and the reference path can each drive their own.
func schedulerPair(policy int, seed int64) (Scheduler, Scheduler) {
	switch policy {
	case 0:
		return NewDRRScheduler(), NewDRRScheduler()
	case 1:
		return NewRoundRobinScheduler(), NewRoundRobinScheduler()
	default:
		a := rand.New(rand.NewSource(seed))
		b := rand.New(rand.NewSource(seed))
		return &RandomScheduler{Intn: a.Intn}, &RandomScheduler{Intn: b.Intn}
	}
}

// TestQueueBacklogMatchesScan drives twin controllers (MIDAS and CAS)
// with random Push/Pop sequences. After every step the backlog set must
// equal a brute-force scan of the FIFOs, and PrimaryAC and EligibleFor
// must equal their reference definitions; at random
// points both SelectClientsEDCA variants must pick exactly what the
// reference picks with a scheduler in the same state, after which both
// twins are charged for the TXOP.
func TestQueueBacklogMatchesScan(t *testing.T) {
	antennas := []int{100, 101, 102, 103}
	for seed := int64(1); seed <= 30; seed++ {
		r := rand.New(rand.NewSource(seed))
		policy := int(seed % 3)
		sa, sb := schedulerPair(policy, seed)
		fast, ref := NewController(Config{Antennas: antennas, Scheduler: sa}), NewController(Config{Antennas: antennas, Scheduler: sb})
		ka, kb := schedulerPair(policy, seed+100)
		casFast, casRef := NewCASController(antennas, ka, 3), NewCASController(antennas, kb, 3)
		queues := []*Queue{fast.Queue, ref.Queue, casFast.Queue, casRef.Queue}
		for step := 0; step < 400; step++ {
			cl := r.Intn(12)
			if r.Intn(5) < 3 {
				var tags []int
				for _, a := range antennas {
					if r.Intn(3) == 0 {
						tags = append(tags, a)
					}
				}
				p := Packet{Client: cl, TID: uint8(r.Intn(8)), Tags: tags}
				for _, q := range queues {
					q.Push(p)
				}
			} else {
				for _, q := range queues {
					q.Pop(cl)
				}
			}
			q := fast.Queue
			if got, want := q.Backlogged(), refBacklogged(q); !slices.Equal(got, want) {
				t.Fatalf("seed %d step %d: Backlogged = %v, scan gives %v", seed, step, got, want)
			}
			gotAC, gotOK := q.PrimaryAC()
			wantAC, wantOK := refPrimaryAC(q)
			if gotAC != wantAC || gotOK != wantOK {
				t.Fatalf("seed %d step %d: PrimaryAC = %v,%v, want %v,%v", seed, step, gotAC, gotOK, wantAC, wantOK)
			}
			for _, a := range append(antennas, 999) {
				if got, want := q.EligibleFor(a), refEligibleFor(q, a); !slices.Equal(got, want) {
					t.Fatalf("seed %d step %d: EligibleFor(%d) = %v, want %v", seed, step, a, got, want)
				}
			}
			if r.Intn(4) != 0 {
				continue
			}
			primary := acOrder[r.Intn(len(acOrder))]
			order := slices.Clone(antennas)
			r.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
			order = order[:1+r.Intn(len(order))]
			got := slices.Clone(fast.SelectClientsEDCA(order, primary))
			if want := refSelectClientsEDCA(ref, order, primary); !slices.Equal(got, want) {
				t.Fatalf("seed %d step %d: SelectClientsEDCA(%v, %v) = %v, want %v", seed, step, order, primary, got, want)
			}
			casGot := slices.Clone(casFast.SelectClientsEDCA(primary))
			if want := refCASSelectClientsEDCA(casRef, primary); !slices.Equal(casGot, want) {
				t.Fatalf("seed %d step %d: CAS SelectClientsEDCA(%v) = %v, want %v", seed, step, primary, casGot, want)
			}
			fast.FinishTXOP(got, time.Millisecond)
			ref.Cfg.Scheduler.Charge(got, refBacklogged(ref.Queue), time.Millisecond)
			casFast.FinishTXOP(casGot, time.Millisecond)
			casRef.Scheduler.Charge(casGot, refBacklogged(casRef.Queue), time.Millisecond)
		}
	}
}

// randomRSSI is an RSSIProvider with coarse random powers, so ties (which
// fall back to the antenna index) are common.
type randomRSSI map[[2]int]float64

func (m randomRSSI) MeanRxPower(client, antenna int) float64 { return m[[2]int{client, antenna}] }

// TestTagAntennasMatchesSort: the top-k insertion in TagAntennas equals
// the head of the stably sorted candidate list, for every tag width.
func TestTagAntennasMatchesSort(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 500; trial++ {
		n := r.Intn(7)
		antennas := r.Perm(10)[:n]
		rssi := randomRSSI{}
		for _, a := range antennas {
			rssi[[2]int{0, a}] = float64(r.Intn(4))
		}
		for w := -1; w <= n+1; w++ {
			got, want := TagAntennas(rssi, 0, antennas, w), refTagAntennas(rssi, 0, antennas, w)
			if !slices.Equal(got, want) {
				t.Fatalf("TagAntennas(%v, width %d) = %v, want %v (rssi %v)", antennas, w, got, want, rssi)
			}
		}
	}
}

// TestSelectAntennasMatchesReference: opportunistic antenna selection on
// random NAV and carrier-sense states equals the map-based definition.
func TestSelectAntennasMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	antennas := []int{100, 101, 102, 103, 104, 105}
	for trial := 0; trial < 2000; trial++ {
		cfg := DefaultConfig(antennas)
		cfg.MaxStreams = 1 + r.Intn(len(antennas))
		c := NewController(cfg)
		now := time.Duration(100+r.Intn(10)) * time.Microsecond
		for k := range antennas {
			if r.Intn(2) == 0 {
				c.Navs.Update(k, time.Duration(r.Intn(200))*time.Microsecond)
			}
		}
		busy := make([]bool, len(antennas))
		for k := range busy {
			busy[k] = r.Intn(3) == 0
		}
		var physBusy func(int) bool
		if r.Intn(4) != 0 {
			physBusy = func(k int) bool { return busy[k] }
		}
		winner := antennas[r.Intn(len(antennas))]
		got, gotWait := c.SelectAntennas(winner, now, physBusy)
		want, wantWait := refSelectAntennas(c, winner, now, physBusy)
		if !slices.Equal(got, want) || gotWait != wantWait {
			t.Fatalf("trial %d: SelectAntennas = %v until %v, want %v until %v", trial, got, gotWait, want, wantWait)
		}
	}
}
