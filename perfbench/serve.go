package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"syscall"
	"time"

	"repro/internal/scenario"
	"repro/internal/service"
	"repro/internal/store"
	"repro/internal/telemetry"
)

// serve-mixed: an in-process midas-serve — the service built from the
// same constructors cmd/midas-serve uses, at its default sizes, over a
// DirBackend store in a scratch directory, no coordinator — driven over
// loopback HTTP by one closed-loop client. The client POSTs a spec to
// /v1/jobs, waits with Service.Wait (the v1 API has no blocking wait,
// and polling would quantise the latency) and GETs the result.
//
// One client keeps about one core busy and leaves the other idle. With
// two, the client and server goroutines alone filled both cores, and
// any CPU taken by the host moved the latencies with it. One competing
// CPU-bound process raised the fresh class's median by 75% with two
// clients and left it within 7% with one (2 vCPUs).
//
// The seeded job list mixes three classes: 70% repeat a hot set that
// the memory tier answers; 20% cycle through a cold set twice the
// 128-entry memory cache, pre-seeded into the store, so each is a
// verified store read; 10% are fresh fig12 specs, each an engine run
// plus an fsynced store write.

const (
	serveClients  = 1
	serveHot      = 16
	serveCold     = 256 // twice service.Config's default 128-entry memory cache
	serveTopos    = 2   // topologies per fig12 spec
	serveScenario = "fig12-spatial-reuse"
	serveTool     = "midas-serve"
	hotShare      = 0.70
	coldShare     = 0.20 // the rest is fresh
)

type serveSizes struct{ hot, cold int }

func serveSize(tiny bool) serveSizes {
	if tiny {
		// Still more cold specs than the memory cache holds, so the
		// cold class keeps reading the store.
		return serveSizes{hot: 2, cold: 136}
	}
	return serveSizes{hot: serveHot, cold: serveCold}
}

// serveJob is one entry of the seeded job list.
type serveJob struct {
	class string // hot, cold or fresh
	spec  scenario.Spec
	body  []byte // POST body
	hash  string // resolved spec's canonical hash
}

// served is one completed request: what came back and from which tier.
type served struct {
	op   int64 // position in the job list
	job  *serveJob
	sum  [32]byte // sha256 of the result body
	tier string   // memory, store or "" (engine run)
	err  error
}

type serveInstance struct {
	e   *env
	sz  serveSizes
	dir string
	ref tracerRef

	st     *store.Store
	svc    *service.Service
	srv    *http.Server
	base   string
	client *http.Client
	openMs float64

	hot, cold []serveJob
	expected  map[string][32]byte // spec hash -> sha256 of the correct body
	bodies    [][]byte            // hot and cold results, for the digest

	mu       sync.Mutex
	rnd      *rand.Rand
	drawn    int // jobs drawn from the list so far
	coldNext int
	fresh    int
	runs     map[string]time.Time // spec hash -> engine run start (traced phases)
	// Hot and cold jobs are checked as they complete; fresh ones after
	// the run, against a fresh in-process run of each spec.
	checked, failed int
	freshServed     []served
	classes         map[string]int // jobs served by class
	tiers           map[string]int // current phase: jobs by answering tier
	phaseFreshLo    int            // first index of freshServed in the current phase
}

// serveSpec resolves one fig12 spec and its POST body.
func serveSpec(class string, seed int64) (*serveJob, error) {
	ov := scenario.Spec{Scenario: serveScenario, Topologies: serveTopos, Seed: seed}
	j, err := resolveJob(serveScenario, ov)
	if err != nil {
		return nil, err
	}
	body, err := json.Marshal(ov)
	if err != nil {
		return nil, err
	}
	return &serveJob{class: class, spec: j.spec, body: body, hash: j.spec.CanonicalHash()}, nil
}

// prepareServe seeds the cold set into one store directory per set-up,
// before any set-up is timed. Seeding creates a few hundred files and
// directories; on a disk shared with other tenants that alone took
// 0.30-0.45 s in runs whose whole set-up had taken under 0.25 s minutes
// before, which made setup_s a reading of the disk's metadata latency.
// Each directory is
// written through store.Put over a backend that puts each blob where
// DirBackend would without the per-blob fsync, and all are flushed with
// one sync at the end.
func prepareServe(e *env, n int) ([]string, error) {
	sz := serveSize(e.tiny)
	sc := mustFind(serveScenario)
	var hashes []string
	payloads := map[string][]byte{}
	for k := 0; k < sz.cold; k++ {
		j, err := serveSpec("cold", jobSeed(e.seed, "serve-cold", sz.hot+k))
		if err != nil {
			return nil, err
		}
		res, err := runSpec(specJob{sc: sc, spec: j.spec}, nil, 0, 0)
		if err != nil {
			return nil, err
		}
		if payloads[j.hash], err = scenario.EncodeResultEnvelope(j.spec, res); err != nil {
			return nil, err
		}
		hashes = append(hashes, j.hash)
	}
	var dirs []string
	for i := 0; i < n; i++ {
		dir, err := os.MkdirTemp(e.tmp, "serve-")
		if err != nil {
			return dirs, err
		}
		dirs = append(dirs, dir)
		root := filepath.Join(dir, "store")
		be, err := store.OpenDir(root, nil)
		if err != nil {
			return dirs, err
		}
		seed, err := store.Open(store.Config{Backend: &tracedBackend{
			Backend: unsyncedDir{be, root}, prefix: "store", ref: &tracerRef{}, mutate: e.mutate}})
		if err != nil {
			return dirs, err
		}
		for _, hash := range hashes {
			if err := seed.Put(hash, payloads[hash]); err != nil {
				seed.Close()
				return dirs, err
			}
		}
		if err := seed.Close(); err != nil {
			return dirs, err
		}
	}
	syscall.Sync() // one flush for every seeded store
	return dirs, nil
}

func setupServe(e *env) (instance, error) {
	w := &serveInstance{e: e, sz: serveSize(e.tiny), expected: map[string][32]byte{},
		rnd: rand.New(rand.NewSource(e.seed)), runs: map[string]time.Time{}, classes: map[string]int{}}
	if len(e.prepared) == 0 {
		return nil, errors.New("serve-mixed: no seeded store left for this set-up")
	}
	w.dir, e.prepared = e.prepared[0], e.prepared[1:]
	ok := false
	defer func() {
		if !ok {
			w.close()
		}
	}()

	// Inputs: the hot and cold sets with their correct bodies, computed
	// in-process through the registry.
	for k := 0; k < w.sz.hot+w.sz.cold; k++ {
		class := "hot"
		if k >= w.sz.hot {
			class = "cold"
		}
		j, err := serveSpec(class, jobSeed(e.seed, "serve-"+class, k))
		if err != nil {
			return nil, err
		}
		res, err := runSpec(specJob{sc: mustFind(serveScenario), spec: j.spec}, nil, 0, 0)
		if err != nil {
			return nil, err
		}
		body, err := render(serveTool, j.spec, res)
		if err != nil {
			return nil, err
		}
		w.expected[j.hash] = sha256.Sum256(body)
		rb, err := resultBytes(j.spec, res)
		if err != nil {
			return nil, err
		}
		w.bodies = append(w.bodies, rb)
		if class == "hot" {
			w.hot = append(w.hot, *j)
		} else {
			w.cold = append(w.cold, *j)
		}
	}

	// Open the seeded store: the service starts from Open's warm scan,
	// as a restarted midas-serve does.
	root := filepath.Join(w.dir, "store")
	be, err := openTracedDir(root, "store", &w.ref, e.mutate)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	if w.st, err = store.Open(store.Config{Backend: be}); err != nil {
		return nil, err
	}
	w.openMs = float64(time.Since(t0)) / float64(time.Millisecond)
	if got := w.st.Stats().Entries; got != len(w.cold) {
		return nil, fmt.Errorf("store warm scan found %d entries, seeded %d", got, len(w.cold))
	}

	// The service at midas-serve's defaults: GOMAXPROCS workers, each
	// job getting an even share of the cores.
	workers := runtime.GOMAXPROCS(0)
	w.svc = service.New(service.Config{
		Store:          w.st,
		JobParallelism: (runtime.GOMAXPROCS(0) + workers - 1) / workers,
		Telemetry:      telemetry.NewRegistry(),
		Run:            w.tracedRun,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	w.base = "http://" + ln.Addr().String()
	w.srv = &http.Server{Handler: w.svc.Handler()}
	go w.srv.Serve(ln)
	w.client = &http.Client{Timeout: 30 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: serveClients}}

	// Warm-up: every hot spec once (an engine run and a store write
	// each), which leaves the hot set in the memory tier.
	for k := range w.hot {
		s := w.do(&w.hot[k], nil, 0)
		if s.err != nil {
			return nil, s.err
		}
		if s.sum != w.expected[s.job.hash] {
			return nil, fmt.Errorf("warm-up: served body for %s differs from an in-process run", s.job.hash)
		}
	}
	ok = true
	return w, nil
}

// tracedRun is the service's Run seam: scenario.RunResolved, with its
// start noted for the queue-wait figure and a "service.run" span.
func (w *serveInstance) tracedRun(ctx context.Context, sc scenario.Scenario, spec scenario.Spec, opts scenario.RunOptions) (scenario.Result, error) {
	tr := w.ref.get()
	if tr == nil {
		return scenario.RunResolved(ctx, sc, spec, opts)
	}
	t0 := time.Now()
	w.mu.Lock()
	w.runs[spec.CanonicalHash()] = t0
	w.mu.Unlock()
	res, err := scenario.RunResolved(ctx, sc, spec, opts)
	tr.Record("service.run", 0, 0, t0, time.Now())
	return res, err
}

// nextJob draws the next job of the seeded list and its position.
func (w *serveInstance) nextJob() (*serveJob, int64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	op := int64(w.drawn)
	w.drawn++
	r := w.rnd.Float64()
	switch {
	case r < hotShare:
		return &w.hot[w.rnd.Intn(len(w.hot))], op, nil
	case r < hotShare+coldShare:
		j := &w.cold[w.coldNext%len(w.cold)]
		w.coldNext++
		return j, op, nil
	}
	w.fresh++
	j, err := serveSpec("fresh", jobSeed(w.e.seed, "serve-fresh", w.fresh))
	return j, op, err
}

// record files one completed job: hot and cold bodies are checked now,
// fresh ones are kept for check.
func (w *serveInstance) record(s served) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.tiers[s.tier]++
	w.classes[s.job.class]++
	if s.job.class == "fresh" {
		w.freshServed = append(w.freshServed, s)
		return
	}
	w.checked++
	if s.err != nil || s.sum != w.expected[s.job.hash] {
		w.failed++
	}
}

// do runs one job through the HTTP API: POST, Service.Wait, GET result.
func (w *serveInstance) do(j *serveJob, tr *Tracer, op int64) served {
	s := served{op: op, job: j}
	root := tr.NewID()
	t0 := time.Now()
	var st service.JobStatus
	s.err = w.post(j.body, &st)
	t1 := time.Now()
	tr.Record("api.submit_"+j.class, root, op, t0, t1)
	if s.err == nil {
		_, s.err = w.svc.Wait(context.Background(), st.ID)
	}
	t2 := time.Now()
	tr.Record("service.wait", root, op, t1, t2)
	if s.err == nil {
		var body []byte
		body, s.err = w.get("/v1/jobs/" + st.ID + "/result")
		s.sum = sha256.Sum256(body)
	}
	tr.Record("api.result", root, op, t2, time.Now())
	tr.Add(root, rootSpan, 0, op, t0, time.Now())
	if st.Cached {
		s.tier = st.CacheTier
	}
	return s
}

func (w *serveInstance) post(body []byte, st *service.JobStatus) error {
	resp, err := w.client.Post(w.base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		return fmt.Errorf("POST /v1/jobs: %s: %s", resp.Status, b)
	}
	return json.Unmarshal(b, st)
}

func (w *serveInstance) get(path string) ([]byte, error) {
	resp, err := w.client.Get(w.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s: %s", path, resp.Status, b)
	}
	return b, nil
}

func (w *serveInstance) run(d time.Duration, tr *Tracer) (phase, error) {
	w.ref.set(tr)
	defer w.ref.set(nil)
	w.mu.Lock()
	w.tiers = map[string]int{}
	w.phaseFreshLo = len(w.freshServed)
	w.mu.Unlock()
	var (
		ph      = newPhase(1)
		wg      sync.WaitGroup
		mu      sync.Mutex
		firstEr error
	)
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				n := len(ph.jobs)
				mu.Unlock()
				if n >= minJobs && time.Since(ph.start) >= d {
					return
				}
				j, op, err := w.nextJob()
				if err != nil {
					mu.Lock()
					firstEr = errors.Join(firstEr, err)
					mu.Unlock()
					return
				}
				t0 := time.Now()
				s := w.do(j, tr, op)
				lat := time.Since(t0)
				w.record(s)
				if s.err == nil {
					mu.Lock()
					ph.add(jobSample{class: j.class, latency: lat, topologies: serveTopos, shards: 1, ops: 1})
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	ph.finish()
	return ph, firstEr
}

func (w *serveInstance) layers(tr *Tracer, out map[string]float64) error {
	spans := tr.Spans()
	for _, c := range []string{"hot", "cold", "fresh"} {
		out["api.submit_"+c+"_ms"] = meanSpan(spans, "api.submit_"+c, time.Millisecond)
	}
	out["api.result_ms"] = meanSpan(spans, "api.result", time.Millisecond)
	out["service.run_ms"] = meanSpan(spans, "service.run", time.Millisecond)
	out["store.read_ms"] = meanSpan(spans, "store.read", time.Millisecond)
	out["store.write_ms"] = meanSpan(spans, "store.write", time.Millisecond)
	reads, _ := spanStats(spans, "store.read")
	writes, _ := spanStats(spans, "store.write")
	out["store.reads"], out["store.writes"] = float64(reads), float64(writes)
	out["store.open_ms"] = w.openMs

	// Queue wait: from a fresh job's POST to its engine run's start.
	submits := map[int64]time.Time{}
	for _, s := range spans {
		if s.Name == "api.submit_fresh" {
			submits[s.Op] = tr.epoch.Add(time.Duration(s.Start))
		}
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	var waitSum time.Duration
	var waits int
	for _, s := range w.freshServed[w.phaseFreshLo:] {
		if sub, ok := submits[s.op]; ok {
			if run, ok := w.runs[s.job.hash]; ok {
				waitSum += run.Sub(sub)
				waits++
			}
		}
	}
	if waits > 0 {
		out["service.queue_wait_ms"] = float64(waitSum) / float64(waits) / float64(time.Millisecond)
	}
	n := 0
	for _, c := range w.tiers {
		n += c
	}
	if n > 0 {
		out["service.memory_hit_ratio"] = float64(w.tiers["memory"]) / float64(n)
		out["service.store_hit_ratio"] = float64(w.tiers["store"]) / float64(n)
	}
	return nil
}

// check compares every fresh body with the body an in-process
// scenario.RunResolved of the same spec renders (hot and cold bodies
// were compared with theirs as they completed).
func (w *serveInstance) check() (attempted, failed int, digest string, err error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	attempted, failed = w.checked, w.failed
	sc := mustFind(serveScenario)
	for _, s := range w.freshServed {
		attempted++
		if s.err != nil {
			failed++
			continue
		}
		res, err := runSpec(specJob{sc: sc, spec: s.job.spec}, nil, 0, 0)
		if err != nil {
			return 0, 0, "", err
		}
		body, err := render(serveTool, s.job.spec, res)
		if err != nil {
			return 0, 0, "", err
		}
		if s.sum != sha256.Sum256(body) {
			failed++
		}
	}
	return attempted, failed, digestOf(w.bodies), nil
}

// mustFind returns a registered scenario the benchmark names itself.
func mustFind(name string) scenario.Scenario {
	sc, err := scenario.Find(name)
	if err != nil {
		panic(err)
	}
	return sc
}

func (w *serveInstance) sizes() map[string]int {
	return map[string]int{
		"clients":         serveClients,
		"hot_specs":       w.sz.hot,
		"cold_specs":      w.sz.cold,
		"memory_cache":    128,
		"topologies":      serveTopos,
		"served_hot":      w.classes["hot"],
		"served_cold":     w.classes["cold"],
		"served_fresh":    w.classes["fresh"],
		"service_workers": runtime.GOMAXPROCS(0),
	}
}

func (w *serveInstance) close() {
	if w.srv != nil {
		w.srv.Close()
	}
	if w.svc != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		w.svc.Shutdown(ctx)
		cancel()
	}
	if w.st != nil {
		w.st.Close()
	}
	if w.client != nil {
		w.client.CloseIdleConnections()
	}
	removeScratch(w.dir)
}
