package main

import (
	"bufio"
	"bytes"
	"context"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/dispatch"
	"repro/internal/journal"
	"repro/internal/rng"
	"repro/internal/scenario"
	"repro/internal/store"
	"repro/internal/telemetry"
)

// dispatch-sweep: a dispatch.Coordinator with a store and a journal on
// DirBackends, and one in-process dispatch.RunWorker polling it over
// loopback HTTP with midas-worker's default inline completion (one
// shard per poll, no worker store). Each job is one sweep of many tiny
// fig12 shards over fresh seeds, so the store prefill never answers
// them: lease → run → complete, the journal rewrite per accepted shard
// and the store publish are the work. The worker's idle poll is short
// so the 200 ms default does not quantise a sweep's wall time.

const (
	sweepScenario = "fig12-spatial-reuse"
	sweepTopos    = 16                   // topologies per shard
	workerPoll    = 1 * time.Millisecond // idle re-poll interval
)

// sweepShards is how many shards (seed sweep points) one sweep has.
func sweepShards(tiny bool) int {
	if tiny {
		return 4
	}
	return 24
}

// sweepRun is one dispatched sweep and what the coordinator returned.
type sweepRun struct {
	job specJob
	res scenario.Result
	err error
}

type sweepInstance struct {
	e   *env
	dir string
	ref tracerRef
	reg *telemetry.Registry

	st    *store.Store
	coord *dispatch.Coordinator
	srv   *http.Server
	base  string

	seq      int
	runs     []sweepRun
	phaseLo  int // first index of runs in the current phase
	worker   context.CancelFunc
	workerWG sync.WaitGroup
}

func setupSweep(e *env) (instance, error) {
	w := &sweepInstance{e: e, reg: telemetry.NewRegistry()}
	var err error
	if w.dir, err = os.MkdirTemp(e.tmp, "sweep-"); err != nil {
		return nil, err
	}
	ok := false
	defer func() {
		if !ok {
			w.close()
		}
	}()
	root := filepath.Join(w.dir, "store")
	be, err := openTracedDir(root, "store", &w.ref, nil)
	if err != nil {
		return nil, err
	}
	if w.st, err = store.Open(store.Config{Backend: be}); err != nil {
		return nil, err
	}
	jbe, err := openTracedDir(filepath.Join(root, "journal"), "journal", &w.ref, nil)
	if err != nil {
		return nil, err
	}
	jn, err := journal.OpenBackend(jbe, nil)
	if err != nil {
		return nil, err
	}
	w.coord = dispatch.New(dispatch.Config{Store: w.st, Journal: jn, Telemetry: w.reg})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	w.base = "http://" + ln.Addr().String()
	w.srv = &http.Server{Handler: tracedDispatch(&w.ref, w.coord.Handler())}
	go w.srv.Serve(ln)

	// Warm-up: one sweep end to end.
	if _, err := w.run(0, nil); err != nil {
		return nil, err
	}
	w.runs = nil
	ok = true
	return w, nil
}

// nextSweep resolves sweep i: fig12 over sweepShards fresh seeds.
func (w *sweepInstance) nextSweep(i int) (specJob, error) {
	n := sweepShards(w.e.tiny)
	seeds := make([]float64, n)
	for k := range seeds {
		// 48-bit seeds are exact in a sweep's float64 values.
		seeds[k] = float64(jobSeed(w.e.seed, "sweep-"+strconv.Itoa(i), k)&(1<<48-1) | 1)
	}
	return resolveJob(sweepScenario, scenario.Spec{Topologies: sweepTopos,
		Sweep: map[string][]float64{"seed": seeds}})
}

// startWorker runs one RunWorker for the phase. Traced phases run the
// shard through the WorkerConfig.Run seam with a "dispatch.shard_run"
// span; untraced ones leave Run nil, the worker's own engine path.
func (w *sweepInstance) startWorker(tr *Tracer) {
	ctx, cancel := context.WithCancel(context.Background())
	w.worker = cancel
	cfg := dispatch.WorkerConfig{
		Coordinator: w.base,
		ID:          "perfbench-worker",
		MaxBatch:    1,
		Poll:        workerPoll,
	}
	if tr != nil {
		cfg.Run = func(_ context.Context, spec scenario.Spec) (scenario.Result, error) {
			t0 := time.Now()
			defer func() { tr.Record("dispatch.shard_run", 0, 0, t0, time.Now()) }()
			sc, err := scenario.Find(spec.Scenario)
			if err != nil {
				return scenario.Result{}, err
			}
			return sc.Run(spec, rng.New(spec.Seed))
		}
	}
	w.workerWG.Add(1)
	go func() {
		defer w.workerWG.Done()
		dispatch.RunWorker(ctx, cfg)
	}()
}

func (w *sweepInstance) stopWorker() {
	if w.worker != nil {
		w.worker()
		w.workerWG.Wait()
		w.worker = nil
	}
}

func (w *sweepInstance) run(d time.Duration, tr *Tracer) (phase, error) {
	w.ref.set(tr)
	defer w.ref.set(nil)
	w.startWorker(tr)
	defer w.stopWorker()
	w.phaseLo = len(w.runs)
	ph := newPhase(1)
	for n := 0; n < minJobs || time.Since(ph.start) < d; n++ {
		i := w.seq
		w.seq++
		j, err := w.nextSweep(i)
		if err != nil {
			return phase{}, err
		}
		root := tr.NewID()
		t0 := time.Now()
		res, err := w.coord.Run(context.Background(), j.sc, j.spec, scenario.RunOptions{})
		t1 := time.Now()
		tr.Add(root, rootSpan, 0, int64(i), t0, t1)
		w.runs = append(w.runs, sweepRun{job: j, res: res, err: err})
		if err != nil {
			continue
		}
		shards := j.spec.ExpandedRuns()
		ph.add(jobSample{class: "fresh", latency: t1.Sub(t0),
			topologies: j.topologies(), shards: shards, ops: shards})
	}
	ph.finish()
	return ph, nil
}

func (w *sweepInstance) layers(tr *Tracer, out map[string]float64) error {
	spans := tr.Spans()
	out["dispatch.lease_ms"] = meanSpan(spans, "dispatch.lease", time.Millisecond)
	out["dispatch.complete_ms"] = meanSpan(spans, "dispatch.complete", time.Millisecond)
	out["dispatch.shard_run_ms"] = meanSpan(spans, "dispatch.shard_run", time.Millisecond)
	out["journal.write_ms"] = meanSpan(spans, "journal.write", time.Millisecond)
	out["store.write_ms"] = meanSpan(spans, "store.write", time.Millisecond)
	storeWrites, _ := spanStats(spans, "store.write")
	journalWrites, _ := spanStats(spans, "journal.write")
	_, runTotal := spanStats(spans, "dispatch.shard_run")

	var sweeps []Span
	shards := 0
	for _, s := range spans {
		if s.Name == rootSpan {
			sweeps = append(sweeps, s)
		}
	}
	for _, r := range w.runs[w.phaseLo:] {
		if r.err == nil {
			shards += r.job.spec.ExpandedRuns()
		}
	}
	var wall, idle time.Duration
	for _, sw := range sweeps {
		wall += sw.Dur()
		for _, s := range spans {
			if s.Name == "dispatch.idle" {
				if a, b := max(s.Start, sw.Start), min(s.End, sw.End); b > a {
					idle += time.Duration(b - a)
				}
			}
		}
	}
	if shards > 0 {
		out["dispatch.overhead_ms_per_shard"] = float64(wall-runTotal) / float64(shards) / float64(time.Millisecond)
		out["journal.writes_per_shard"] = float64(journalWrites) / float64(shards)
	}
	if len(sweeps) > 0 {
		out["dispatch.idle_ms"] = float64(idle) / float64(len(sweeps)) / float64(time.Millisecond)
	}
	out["store.writes"] = float64(storeWrites)
	out["dispatch.requeues"] = counterTotal(w.reg, "midas_shard_requeues_total")
	return nil
}

// counterTotal sums every series of a counter family in the registry's
// Prometheus exposition.
func counterTotal(reg *telemetry.Registry, family string) float64 {
	var buf bytes.Buffer
	if reg.Render(&buf) != nil {
		return 0
	}
	total := 0.0
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		if name, _, _ := strings.Cut(line, "{"); name != family && !strings.HasPrefix(line, family+" ") {
			continue
		}
		fields := strings.Fields(line)
		if v, err := strconv.ParseFloat(fields[len(fields)-1], 64); err == nil {
			total += v
		}
	}
	return total
}

// check compares every dispatched sweep's result with an in-process
// scenario.RunResolved of the same spec, byte for byte as rendered.
func (w *sweepInstance) check() (attempted, failed int, digest string, err error) {
	var firsts [][]byte
	for k, r := range w.runs {
		shards := r.job.spec.ExpandedRuns()
		attempted += shards
		if r.err != nil {
			failed += shards
			continue
		}
		got, err := render(serveTool, r.job.spec, r.res)
		if err != nil {
			return 0, 0, "", err
		}
		ref, err := runSpec(r.job, nil, 0, 0)
		if err != nil {
			return 0, 0, "", err
		}
		want, err := render(serveTool, r.job.spec, ref)
		if err != nil {
			return 0, 0, "", err
		}
		if !bytes.Equal(got, want) {
			failed += shards
		}
		if k < minJobs {
			rb, err := resultBytes(r.job.spec, ref)
			if err != nil {
				return 0, 0, "", err
			}
			firsts = append(firsts, rb)
		}
	}
	return attempted, failed, digestOf(firsts), nil
}

func (w *sweepInstance) sizes() map[string]int {
	return map[string]int{
		"shards_per_sweep":     sweepShards(w.e.tiny),
		"topologies_per_shard": sweepTopos,
		"worker_poll_us":       int(workerPoll / time.Microsecond),
		"worker_max_batch":     1,
		"sweeps":               len(w.runs),
	}
}

func (w *sweepInstance) close() {
	w.stopWorker()
	if w.srv != nil {
		w.srv.Close()
	}
	if w.coord != nil {
		w.coord.Close()
	}
	if w.st != nil {
		w.st.Close()
	}
	removeScratch(w.dir)
}
