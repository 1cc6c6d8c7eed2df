package main

import (
	"fmt"
	"time"

	"repro/internal/channel"
	"repro/internal/precoding"
	"repro/internal/rng"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/topology"
)

// phy-sweep: the PHY figures (3, 7, 8, 9, 10, 11) and the antenna
// correlation ablation, with topology counts raised far above the
// registry defaults. This is the rng → topology → channel → matrix →
// precoding path with no DES, so a DES optimisation should not move it.

// phyJobs is the cycle of scenarios, with topologies per job (per sweep
// point: fig8 and fig9 sweep the array size over two points).
var phyJobs = []struct {
	name  string
	topos int
}{
	{"fig3-naive-scaling-drop", 600},
	{"fig7-link-snr", 600},
	{"fig8-office-a", 300},
	{"fig9-office-b", 300},
	{"fig10-smart-precoding", 600},
	{"fig11-optimal-gap", 600},
	{"ablation-correlation", 400},
}

type phyInstance struct {
	engineRun
	e      *env
	tiny   bool
	check8 specJob // fig8-office-a at 4×4, replayed topology by topology
	replay *phyReplay
}

// phyCheckTopos is the check set's size: fig8-office-a topologies.
func phyCheckTopos(tiny bool) int {
	if tiny {
		return 4
	}
	return 200
}

func setupPHY(e *env) (instance, error) {
	w := &phyInstance{e: e, tiny: e.tiny}
	w.cycle = len(phyJobs)
	w.next = func(i int) (specJob, error) {
		pj := phyJobs[i%len(phyJobs)]
		topos := pj.topos
		if e.tiny {
			topos = 4
		}
		return resolveJob(pj.name, scenario.Spec{Topologies: topos, Seed: jobSeed(e.seed, "phy", i), Parallelism: nproc()})
	}
	var err error
	w.check8, err = resolveJob("fig8-office-a", scenario.Spec{Topologies: phyCheckTopos(e.tiny),
		Seed: jobSeed(e.seed, "phy-check", 0), Antennas: 4, Clients: 4, Parallelism: nproc()})
	if err != nil {
		return nil, err
	}
	// Warm-up: every scenario of the cycle once at its default size.
	for k, pj := range phyJobs {
		j, err := resolveJob(pj.name, scenario.Spec{Seed: jobSeed(e.seed, "phy-warm", k), Parallelism: nproc()})
		if err != nil {
			return nil, err
		}
		if _, err := runSpec(j, nil, 0, 0); err != nil {
			return nil, err
		}
	}
	return w, nil
}

func (w *phyInstance) sizes() map[string]int {
	out := map[string]int{"check_topologies": phyCheckTopos(w.tiny), "parallelism": nproc()}
	for _, pj := range phyJobs {
		out[pj.name+"_topologies_per_point"] = pj.topos
		if w.tiny {
			out[pj.name+"_topologies_per_point"] = 4
		}
	}
	return out
}

func (w *phyInstance) close() {}

// phyReplay is fig8-office-a's 4×4 point replayed topology by topology
// through the public calls sim.FigCapacityCDFOpts makes (Office A is the
// channel and topology defaults).
type phyReplay struct {
	cas, midas []float64
	solves     int
	allocs     uint64
}

func (w *phyInstance) runReplay(tr *Tracer) (*phyReplay, error) {
	spec := w.check8.spec
	r := &phyReplay{}
	p := channel.Default()
	label := fmt.Sprintf("fig89-%v-%d", sim.OfficeA, spec.Antennas)
	sv := precoding.NewSolver()
	root := rng.New(spec.Seed)
	split := func(src *rng.Source, name string, parent, op int64) (out *rng.Source) {
		timed(tr, "rng.split", parent, op, func() { out = src.Split(name) })
		return out
	}
	for t := 0; t < spec.Topologies; t++ {
		op := int64(t)
		id := tr.NewID()
		t0 := time.Now()
		var src *rng.Source
		timed(tr, "rng.split", id, op, func() { src = root.SplitN(label, t) })
		var rates [2]float64
		for arm, mode := range []topology.Mode{topology.CAS, topology.DAS} {
			cfg := topology.DefaultConfig(mode)
			cfg.AntennasPerAP = spec.Antennas
			cfg.ClientsPerAP = spec.Clients
			var dep *topology.Deployment
			tsrc := split(src, "topo", id, op)
			timed(tr, "topology.build", id, op, func() { dep = topology.SingleAP(cfg, tsrc) })
			var m *channel.Model
			csrc := split(src, "chan", id, op)
			timed(tr, "channel.model", id, op, func() { m = dep.Model(p, csrc) })
			prob := precoding.Problem{PerAntennaPower: p.TxPowerLinear(), Noise: p.NoiseLinear()}
			timed(tr, "channel.matrix", id, op, func() { prob.H = m.Matrix(nil, nil) })
			var m0 uint64
			if tr != nil {
				m0 = mallocs()
			}
			var err error
			timed(tr, "precoding.solve", id, op, func() {
				if mode == topology.CAS {
					v, e := sv.NaiveScaled(prob)
					if err = e; e == nil {
						rates[arm] = sv.SumRate(prob.H, v, prob.Noise)
					}
				} else {
					v, _, e := sv.PowerBalanced(prob)
					if err = e; e == nil {
						rates[arm] = sv.SumRate(prob.H, v, prob.Noise)
					}
				}
			})
			if tr != nil {
				r.allocs += mallocs() - m0
				r.solves++
			}
			if err != nil {
				return nil, fmt.Errorf("phy replay topology %d: %w", t, err)
			}
		}
		r.cas = append(r.cas, rates[0])
		r.midas = append(r.midas, rates[1])
		tr.Add(id, "replay.topology", 0, op, t0, time.Now())
	}
	return r, nil
}

// rngNewCalls is how many rng.New calls the seeding probe times.
const rngNewCalls = 2000

func (w *phyInstance) layers(tr *Tracer, out map[string]float64) error {
	var err error
	if w.replay, err = w.runReplay(tr); err != nil {
		return err
	}
	spans := tr.Spans()
	out["rng.split_us"] = meanSpan(spans, "rng.split", time.Microsecond)
	out["topology.build_ms"] = meanSpan(spans, "topology.build", time.Millisecond)
	out["channel.model_ms"] = meanSpan(spans, "channel.model", time.Millisecond)
	out["channel.matrix_us"] = meanSpan(spans, "channel.matrix", time.Microsecond)
	out["precoding.solve_us"] = meanSpan(spans, "precoding.solve", time.Microsecond)
	if w.replay.solves > 0 {
		out["precoding.allocs_per_solve"] = float64(w.replay.allocs) / float64(w.replay.solves)
	}
	// rng.New seeds math/rand's 607-word state on every call; Split is
	// one New plus a label hash.
	t0 := time.Now()
	for k := 0; k < rngNewCalls; k++ {
		probeSink += float64(rng.New(int64(k) + 1).Seed())
	}
	out["rng.new_us"] = float64(time.Since(t0).Nanoseconds()) / rngNewCalls / 1e3
	return nil
}

// check requires the replay to reproduce fig8-office-a's 4×4 series bit
// for bit.
func (w *phyInstance) check() (attempted, failed int, digest string, err error) {
	if w.replay == nil {
		if w.replay, err = w.runReplay(nil); err != nil {
			return 0, 0, "", err
		}
	}
	j := w.check8
	res, err := runSpec(j, nil, 0, 0)
	if err != nil {
		return 0, 0, "", err
	}
	body, err := resultBytes(j.spec, res)
	if err != nil {
		return 0, 0, "", err
	}
	bad := 0
	for arm, label := range []string{"CAS capacity", "MIDAS capacity"} {
		series, err := seriesValues(res, label)
		if err != nil {
			return 0, 0, "", err
		}
		bad = max(bad, mismatches(series, [][]float64{w.replay.cas, w.replay.midas}[arm]))
	}
	attempted = w.attempts + j.spec.Topologies
	failed = w.failures + min(bad, j.spec.Topologies)
	return attempted, failed, digestOf(append(append([][]byte(nil), w.firsts...), body)), nil
}
