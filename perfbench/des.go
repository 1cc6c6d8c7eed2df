package main

import (
	"time"

	"repro/internal/channel"
	"repro/internal/geom"
	"repro/internal/rng"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/topology"
)

// des-testbed: the Fig. 15 three-AP testbed at its paper scale (3 APs ×
// 4 antennas × 4 clients, 300 ms of simulated airtime per network,
// static positions), alternating with client-churn, which redraws the
// clients every quarter of the run so NewNetwork and ReplaceClients run
// again. Jobs alternate between the two scenarios; each job is a fresh
// seed through the registry at parallelism nproc.

type desSizes struct {
	fig15Topos int // topologies per fig15-end-to-end job
	churnTopos int // topologies per client-churn job
	checkTopos int // topologies per scenario in the replayed check set
	simTime    time.Duration
}

func desSize(tiny bool) desSizes {
	if tiny {
		return desSizes{fig15Topos: 1, churnTopos: 1, checkTopos: 1, simTime: 20 * time.Millisecond}
	}
	return desSizes{fig15Topos: 8, churnTopos: 8, checkTopos: 3, simTime: 300 * time.Millisecond}
}

// churnEpochs is client-churn's epoch count (its registered run splits
// the airtime into four epochs).
const churnEpochs = 4

type desInstance struct {
	engineRun
	e      *env
	sz     desSizes
	checks [2]specJob // fig15 and churn check specs
	replay *desReplay // the check set's replay, once run
}

func setupDES(e *env) (instance, error) {
	sz := desSize(e.tiny)
	w := &desInstance{e: e, sz: sz}
	w.cycle = 2
	w.next = func(i int) (specJob, error) {
		name, topos := "fig15-end-to-end", sz.fig15Topos
		if i%2 == 1 {
			name, topos = "client-churn", sz.churnTopos
		}
		return resolveJob(name, scenario.Spec{Topologies: topos, Seed: jobSeed(e.seed, "des", i),
			SimTime: scenario.Duration(sz.simTime), Parallelism: nproc()})
	}
	for k, name := range []string{"fig15-end-to-end", "client-churn"} {
		j, err := resolveJob(name, scenario.Spec{Topologies: sz.checkTopos, Seed: jobSeed(e.seed, "des-check", k),
			SimTime: scenario.Duration(sz.simTime), Parallelism: nproc()})
		if err != nil {
			return nil, err
		}
		w.checks[k] = j
	}
	// Warm-up: one single-topology job of each scenario. Its seed is
	// fixed: a DES run's cost depends on its topology, and a warm-up
	// drawn from the run's seed made setup_s differ by half from one
	// seed to another. The timed jobs and the checks draw from the seed.
	for k, name := range []string{"fig15-end-to-end", "client-churn"} {
		j, err := resolveJob(name, scenario.Spec{Topologies: 1, Seed: jobSeed(0, "des-warm", k),
			SimTime: scenario.Duration(sz.simTime), Parallelism: nproc()})
		if err != nil {
			return nil, err
		}
		if _, err := runSpec(j, nil, 0, 0); err != nil {
			return nil, err
		}
	}
	return w, nil
}

func (w *desInstance) sizes() map[string]int {
	return map[string]int{
		"fig15_topologies_per_job": w.sz.fig15Topos,
		"churn_topologies_per_job": w.sz.churnTopos,
		"check_topologies":         2 * w.sz.checkTopos,
		"simtime_ms":               int(w.sz.simTime / time.Millisecond),
		"parallelism":              nproc(),
	}
}

func (w *desInstance) close() {}

// desReplay is the check set replayed topology by topology through the
// public calls the scenarios make, with each call timed.
type desReplay struct {
	tr  *Tracer
	p   channel.Params
	cas [2][]float64 // per check spec: replayed CAS capacities
	mid [2][]float64 // per check spec: replayed MIDAS capacities

	txops   int
	runTime time.Duration
	simTime time.Duration
	allocs  uint64
	// probe inputs: each network's shadow field with its antenna→client
	// position pairs.
	fields []*channel.ShadowField
	pairs  [][][2]geom.Point
}

// runNetwork mirrors the sim package's per-arm body: associate clients
// through the floor plan, build the network, run it, read its capacity.
func (r *desReplay) runNetwork(dep *topology.Deployment, opts sim.StationOpts, src *rng.Source, d time.Duration, parent, op int64) float64 {
	timed(r.tr, "sim.associate", parent, op, func() { sim.EnsureAssociated(dep, r.p, src.Split("model")) })
	var net *sim.Network
	timed(r.tr, "sim.network_build", parent, op, func() { net = sim.NewNetwork(dep, r.p, opts, src) })
	var m0 uint64
	if r.tr != nil {
		m0 = mallocs()
	}
	t0 := time.Now()
	net.Run(d)
	t1 := time.Now()
	if r.tr != nil {
		r.allocs += mallocs() - m0
		r.tr.Record("mac.run", parent, op, t0, t1)
		r.txops += net.TotalTXOPs()
		r.runTime += t1.Sub(t0)
		r.simTime += d
		if len(r.fields) < 16 {
			var pairs [][2]geom.Point
			for _, a := range dep.Antennas {
				for _, c := range dep.Clients {
					pairs = append(pairs, [2]geom.Point{a.Pos, c})
				}
			}
			r.fields = append(r.fields, net.Model.Field())
			r.pairs = append(r.pairs, pairs)
		}
	}
	return net.NetworkCapacity()
}

// testbedPair builds the CAS and DAS testbeds of one topology, both from
// the same "topo" stream as the scenarios do.
func (r *desReplay) testbedPair(spec scenario.Spec, src *rng.Source, parent, op int64) (depC, depM *topology.Deployment) {
	cfg := func(mode topology.Mode) topology.Config {
		c := topology.DefaultConfig(mode)
		c.ClientsPerAP, c.AntennasPerAP = spec.Clients, spec.Antennas
		return c
	}
	timed(r.tr, "topology.build", parent, op, func() { depC = topology.ThreeAPTestbed(cfg(topology.CAS), src.Split("topo")) })
	timed(r.tr, "topology.build", parent, op, func() { depM = topology.ThreeAPTestbed(cfg(topology.DAS), src.Split("topo")) })
	return depC, depM
}

func (r *desReplay) overhearing(dep *topology.Deployment, src *rng.Source, parent, op int64) (out *rng.Source) {
	timed(r.tr, "sim.overhear", parent, op, func() { out = sim.OverhearingSource(dep, r.p, src, 64) })
	return out
}

// fig15 replays fig15-end-to-end's per-topology body (sim.Fig15EndToEnd).
func (r *desReplay) fig15(spec scenario.Spec) (cas, midas []float64) {
	root := rng.New(spec.Seed)
	d := time.Duration(spec.SimTime)
	for t := 0; t < spec.Topologies; t++ {
		op := int64(t)
		id := r.tr.NewID()
		t0 := time.Now()
		src := root.SplitN("fig15", t)
		depC, depM := r.testbedPair(spec, src, id, op)
		runC := r.overhearing(depC, src.Split("runC"), id, op)
		runM := r.overhearing(depM, src.Split("runM"), id, op)
		cas = append(cas, r.runNetwork(depC, sim.DefaultStationOpts(sim.KindCAS), runC, d, id, op))
		midas = append(midas, r.runNetwork(depM, sim.DefaultStationOpts(sim.KindMIDAS), runM, d, id, op))
		r.tr.Add(id, "replay.topology", 0, op, t0, time.Now())
	}
	return cas, midas
}

// churn replays client-churn's per-topology body (sim.ClientChurn).
func (r *desReplay) churn(spec scenario.Spec) (cas, midas []float64) {
	root := rng.New(spec.Seed)
	epoch := time.Duration(spec.SimTime) / churnEpochs
	for t := 0; t < spec.Topologies; t++ {
		op := int64(t)
		id := r.tr.NewID()
		t0 := time.Now()
		src := root.SplitN("churn", t)
		depC, depM := r.testbedPair(spec, src, id, op)
		var sumC, sumM float64
		for e := 0; e < churnEpochs; e++ {
			es := src.SplitN("epoch", e)
			if e > 0 {
				timed(r.tr, "topology.replace_clients", id, op, func() { depC.ReplaceClients(es.Split("churnC")) })
				timed(r.tr, "topology.replace_clients", id, op, func() { depM.ReplaceClients(es.Split("churnM")) })
			}
			runC := r.overhearing(depC, es.Split("runC"), id, op)
			runM := r.overhearing(depM, es.Split("runM"), id, op)
			sumC += r.runNetwork(depC, sim.DefaultStationOpts(sim.KindCAS), runC, epoch, id, op)
			sumM += r.runNetwork(depM, sim.DefaultStationOpts(sim.KindMIDAS), runM, epoch, id, op)
		}
		cas = append(cas, sumC/churnEpochs)
		midas = append(midas, sumM/churnEpochs)
		r.tr.Add(id, "replay.topology", 0, op, t0, time.Now())
	}
	return cas, midas
}

// runReplay replays both check specs.
func (w *desInstance) runReplay(tr *Tracer) *desReplay {
	r := &desReplay{tr: tr, p: channel.Default()}
	r.cas[0], r.mid[0] = r.fig15(w.checks[0].spec)
	r.cas[1], r.mid[1] = r.churn(w.checks[1].spec)
	return r
}

func (w *desInstance) layers(tr *Tracer, out map[string]float64) error {
	w.replay = w.runReplay(tr)
	r := w.replay
	spans := tr.Spans()
	for _, name := range []string{"topology.build", "sim.overhear", "sim.associate", "sim.network_build",
		"topology.replace_clients", "mac.run"} {
		out[name+"_ms"] = meanSpan(spans, name, time.Millisecond)
	}
	if r.txops > 0 {
		out["mac.ns_per_txop"] = float64(r.runTime.Nanoseconds()) / float64(r.txops)
		out["mac.allocs_per_txop"] = float64(r.allocs) / float64(r.txops)
	}
	out["mac.txops"] = float64(r.txops)
	out["mac.sim_s_per_host_s"] = r.simTime.Seconds() / r.runTime.Seconds()
	out["channel.pathloss_ns"], out["channel.shadow_ns"] = linkProbes(r.p, r.fields, r.pairs)
	return nil
}

// probeSink accumulates probe results so the probed calls stay live.
var probeSink float64

// linkProbeCalls is how many calls each link probe times.
const linkProbeCalls = 200_000

// linkProbes times the two quantities mac.(*Air).linkPower recomputes on
// every carrier-sense and interference query — path loss over a
// position pair's distance, and the shadow field between the pair — on
// the replayed networks' own antenna→client pairs.
func linkProbes(p channel.Params, fields []*channel.ShadowField, pairs [][][2]geom.Point) (pathlossNs, shadowNs float64) {
	if len(fields) == 0 {
		return 0, 0
	}
	run := func(f func(k int, ab [2]geom.Point) float64) float64 {
		n := 0
		t0 := time.Now()
		for n < linkProbeCalls {
			for k := range fields {
				for _, ab := range pairs[k] {
					probeSink += f(k, ab)
					n++
				}
			}
		}
		return float64(time.Since(t0).Nanoseconds()) / float64(n)
	}
	pathlossNs = run(func(_ int, ab [2]geom.Point) float64 { return p.PathLossDB(ab[0].Dist(ab[1])) })
	shadowNs = run(func(k int, ab [2]geom.Point) float64 { return fields[k].Shadow(ab[0], ab[1]) })
	return pathlossNs, shadowNs
}

// check runs the check set through the registry and requires the replay
// to reproduce every topology's capacities bit for bit, which proves
// the replay measured the same work the scenarios do.
func (w *desInstance) check() (attempted, failed int, digest string, err error) {
	if w.replay == nil {
		w.replay = w.runReplay(nil)
	}
	bodies := append([][]byte(nil), w.firsts...)
	attempted, failed = w.attempts, w.failures
	for k, j := range w.checks {
		res, err := runSpec(j, nil, 0, 0)
		if err != nil {
			return 0, 0, "", err
		}
		body, err := resultBytes(j.spec, res)
		if err != nil {
			return 0, 0, "", err
		}
		bodies = append(bodies, body)
		labels := [2]string{"CAS network capacity", "MIDAS network capacity"}
		if k == 1 {
			labels = [2]string{"CAS capacity under churn", "MIDAS capacity under churn"}
		}
		bad := 0
		for arm, replay := range [][]float64{w.replay.cas[k], w.replay.mid[k]} {
			series, err := seriesValues(res, labels[arm])
			if err != nil {
				return 0, 0, "", err
			}
			bad = max(bad, mismatches(series, replay))
		}
		attempted += j.spec.Topologies
		failed += min(bad, j.spec.Topologies)
	}
	return attempted, failed, digestOf(bodies), nil
}
