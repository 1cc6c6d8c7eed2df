package sim

import (
	"testing"
	"time"

	"repro/internal/rng"
	"repro/internal/topology"
)

// fig15Network builds one arm of a Figure 15 topology the way
// Fig15EndToEnd does: the 3-AP testbed, a floor plan on which the APs
// overhear each other, and associated clients.
func fig15Network(seed int64, kind Kind) *Network {
	var o E2EOpts
	p := o.params()
	mode, arm := topology.CAS, "runC"
	if kind == KindMIDAS {
		mode, arm = topology.DAS, "runM"
	}
	src := rng.New(seed)
	dep := topology.ThreeAPTestbed(o.config(mode), src.Split("topo"))
	run := OverhearingSource(dep, p, src.Split(arm), 64)
	EnsureAssociated(dep, p, run.Split("model"))
	return NewNetwork(dep, p, DefaultStationOpts(kind), run)
}

// TestNetworkRunAllocsPerTXOP is the whole-run allocation gate of the
// DES hot path (run by `make alloc-guard`): running a freshly built
// Figure 15 network — both arms — allocates at most 40 objects per
// TXOP, counted over the whole run as the benchmark's
// mac.allocs_per_txop is.
func TestNetworkRunAllocsPerTXOP(t *testing.T) {
	const (
		runs    = 4
		simTime = 200 * time.Millisecond
		limit   = 40
	)
	for _, kind := range []Kind{KindCAS, KindMIDAS} {
		nets := make([]*Network, runs+1) // AllocsPerRun adds a warm-up run
		for i := range nets {
			nets[i] = fig15Network(int64(7+i), kind)
		}
		next := 0
		allocs := testing.AllocsPerRun(runs, func() {
			nets[next].Run(simTime)
			next++
		})
		txops := 0
		for _, n := range nets[1:] {
			txops += n.TotalTXOPs()
		}
		if txops == 0 {
			t.Fatalf("%v: no TXOPs completed", kind)
		}
		per := allocs * runs / float64(txops)
		t.Logf("%v: %.1f allocations per TXOP (%d TXOPs)", kind, per, txops)
		if per > limit {
			t.Errorf("%v: %.1f allocations per TXOP, want <= %d", kind, per, limit)
		}
	}
}
