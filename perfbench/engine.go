package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"repro/internal/runner"
	"repro/internal/scenario"
)

// minJobs is how many jobs a timed phase runs at least, however short
// -seconds is; the first minJobs results of a run are part of its digest.
const minJobs = 2

// specJob is one resolved scenario spec, ready to run.
type specJob struct {
	sc   scenario.Scenario
	spec scenario.Spec
}

// resolveJob resolves overrides against the named scenario through the
// registry, as every caller of the engine does.
func resolveJob(name string, overrides scenario.Spec) (specJob, error) {
	sc, err := scenario.Find(name)
	if err != nil {
		return specJob{}, err
	}
	spec, err := scenario.Resolve(sc, overrides)
	if err != nil {
		return specJob{}, err
	}
	return specJob{sc: sc, spec: spec}, nil
}

// topologies is how many topologies the job's result covers.
func (j specJob) topologies() int { return j.spec.Topologies * j.spec.ExpandedRuns() }

// runSpec runs one resolved spec through scenario.RunResolved, recording
// a "scenario.run" span with one "scenario.task" child per expanded run
// (reported through RunOptions.OnRunDone).
func runSpec(j specJob, tr *Tracer, parent, op int64) (scenario.Result, error) {
	id := tr.NewID()
	var opts scenario.RunOptions
	if tr != nil {
		opts.OnRunDone = func(p runner.Progress) {
			end := time.Now()
			tr.Record("scenario.task", id, op, end.Add(-p.Elapsed), end)
		}
	}
	t0 := time.Now()
	res, err := scenario.RunResolved(context.Background(), j.sc, j.spec, opts)
	tr.Add(id, "scenario.run", parent, op, t0, time.Now())
	return res, err
}

// render is a result's response body: what midas-sim -format json and
// midas-serve emit for the spec, under the given tool name.
func render(tool string, spec scenario.Spec, res scenario.Result) ([]byte, error) {
	return runner.RenderJSON(spec.SinkMeta(tool), res.RunnerResult())
}

// digestOf hashes bodies in order.
func digestOf(bodies [][]byte) string {
	h := sha256.New()
	for _, b := range bodies {
		fmt.Fprintf(h, "%d\n", len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// jobSeed derives job i's root seed from the workload seed. Seeds are
// never 0, which a spec would read as "inherit the default".
func jobSeed(seed int64, stream string, i int) int64 {
	h := sha256.Sum256([]byte(fmt.Sprintf("%d/%s/%d", seed, stream, i)))
	s := int64(0)
	for _, b := range h[:7] {
		s = s<<8 | int64(b)
	}
	if s == 0 {
		s = 1
	}
	return s
}

// engineRun is the shared timed loop of the two engine workloads
// (des-testbed, phy-sweep): jobs run back to back in one goroutine, each
// through the registry with the spec's parallelism at nproc.
type engineRun struct {
	next     func(i int) (specJob, error) // job i of the seeded sequence
	cycle    int                          // jobs per round of the mix
	seq      int                          // next job index
	firsts   [][]byte                     // results of jobs 0..minJobs-1, for the digest
	attempts int                          // topologies run in timed phases
	failures int                          // topologies of jobs that failed or fail the sanity check
}

func (w *engineRun) run(d time.Duration, tr *Tracer) (phase, error) {
	ph := newPhase(w.cycle)
	for n := 0; n < minJobs || time.Since(ph.start) < d; n++ {
		i := w.seq
		w.seq++
		j, err := w.next(i)
		if err != nil {
			return phase{}, err
		}
		root := tr.NewID()
		t0 := time.Now()
		res, err := runSpec(j, tr, root, int64(i))
		t1 := time.Now()
		tr.Add(root, rootSpan, 0, int64(i), t0, t1)
		w.attempts += j.topologies()
		if err != nil || sane(j, res) != nil {
			w.failures += j.topologies()
			continue
		}
		if i < minJobs {
			body, err := resultBytes(j.spec, res)
			if err != nil {
				return phase{}, err
			}
			w.firsts = append(w.firsts, body)
		}
		ph.add(jobSample{class: "fresh", latency: t1.Sub(t0),
			topologies: j.topologies(), shards: j.spec.ExpandedRuns(), ops: j.topologies()})
	}
	ph.finish()
	return ph, nil
}

// sane is the cheap check every timed job's result passes: it names
// its scenario, and every value it reports is finite.
func sane(j specJob, res scenario.Result) error {
	if res.Scenario != j.sc.Name() {
		return fmt.Errorf("result names scenario %q, want %q", res.Scenario, j.sc.Name())
	}
	if len(res.Series) == 0 && len(res.Metrics) == 0 {
		return fmt.Errorf("%s: empty result", j.sc.Name())
	}
	for _, s := range res.Series {
		for _, v := range s.Values {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("%s: series %q has a non-finite value", j.sc.Name(), s.Label)
			}
		}
	}
	return nil
}

// seriesValues returns the values of the result's series with the given
// label (ascending, as stats.Sample renders them).
func seriesValues(res scenario.Result, label string) ([]float64, error) {
	for _, s := range res.Series {
		if s.Label == label {
			return s.Values, nil
		}
	}
	return nil, fmt.Errorf("%s: no series %q", res.Scenario, label)
}

// mismatches counts positions where the sorted replay values differ
// from the scenario's series, bit for bit.
func mismatches(series, replay []float64) int {
	sorted := append([]float64(nil), replay...)
	sort.Float64s(sorted)
	if len(series) != len(sorted) {
		return max(len(series), len(sorted))
	}
	n := 0
	for i := range series {
		if math.Float64bits(series[i]) != math.Float64bits(sorted[i]) {
			n++
		}
	}
	return n
}

// nproc is the parallelism engine specs run at: the host's core count.
func nproc() int { return runtime.NumCPU() }

// mallocs returns the process's cumulative heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}
