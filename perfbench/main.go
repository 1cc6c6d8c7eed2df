// Command midas-perfbench is the repository's end-to-end benchmark. It
// runs one named workload on inputs generated from -seed, measures it
// for -seconds, checks every output it produced, and prints one JSON
// result line with the end-to-end metrics (-trace 0) or the per-layer
// metrics of a traced run (-trace 1). See README.md for the workloads,
// the metric map and how to run it.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metricDef names one reported metric and its unit. The lists below are
// the same as BENCHMARK.json's (TestMetricListsMatchBenchmarkJSON).
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"topologies_per_s", "1/s"},
	{"jobs_per_s", "1/s"},
	{"job_p50_ms", "ms"},
	{"fresh_job_p50_ms", "ms"},
	{"shards_per_s", "1/s"},
	{"cpu_ms_per_op", "ms"},
	{"peak_rss_mb", "MB"},
	{"fail_rate", "ratio"},
}

var perLayer = []metricDef{
	{"trace.overhead_pct", "%"},
	{"scenario.self_ms", "ms"},
	// des-testbed replay and probes.
	{"topology.build_ms", "ms"},
	{"sim.overhear_ms", "ms"},
	{"sim.associate_ms", "ms"},
	{"sim.network_build_ms", "ms"},
	{"topology.replace_clients_ms", "ms"},
	{"mac.run_ms", "ms"},
	{"mac.ns_per_txop", "ns"},
	{"mac.allocs_per_txop", "count"},
	{"mac.txops", "count"},
	{"mac.sim_s_per_host_s", "ratio"},
	{"channel.pathloss_ns", "ns"},
	{"channel.shadow_ns", "ns"},
	// phy-sweep replay and probes.
	{"rng.new_us", "us"},
	{"rng.split_us", "us"},
	{"channel.model_ms", "ms"},
	{"channel.matrix_us", "us"},
	{"precoding.solve_us", "us"},
	{"precoding.allocs_per_solve", "count"},
	// serve-mixed.
	{"api.submit_hot_ms", "ms"},
	{"api.submit_cold_ms", "ms"},
	{"api.submit_fresh_ms", "ms"},
	{"api.result_ms", "ms"},
	{"service.queue_wait_ms", "ms"},
	{"service.run_ms", "ms"},
	{"service.memory_hit_ratio", "ratio"},
	{"service.store_hit_ratio", "ratio"},
	{"store.open_ms", "ms"},
	{"store.read_ms", "ms"},
	{"store.reads", "count"},
	// serve-mixed and dispatch-sweep.
	{"store.write_ms", "ms"},
	{"store.writes", "count"},
	// dispatch-sweep.
	{"dispatch.lease_ms", "ms"},
	{"dispatch.complete_ms", "ms"},
	{"dispatch.shard_run_ms", "ms"},
	{"dispatch.overhead_ms_per_shard", "ms"},
	{"dispatch.idle_ms", "ms"},
	{"dispatch.requeues", "count"},
	{"journal.write_ms", "ms"},
	{"journal.writes_per_shard", "count"},
}

// setupReps is how often a run builds its workload from scratch;
// setup_s is the median, and the last build is the one measured.
const setupReps = 5

// jobSample is one completed job: a resolved spec run to a result.
type jobSample struct {
	class      string // "fresh" for an engine run; serve-mixed adds "hot" and "cold"
	latency    time.Duration
	topologies int // topologies the job's result covers (all shards)
	shards     int // expanded runs (sweep points × replicates)
	ops        int // the workload's primary unit: topologies, jobs or shards

	done time.Duration // completion, since the phase began
	cpu  time.Duration // process CPU time at completion, since the phase began
}

// phase is what one timed phase completed, in completion order.
type phase struct {
	jobs  []jobSample
	wall  time.Duration
	ops   int
	cycle int // jobs per round of the workload's job mix

	start time.Time
	cpu0  time.Duration
}

// newPhase starts a phase whose job mix repeats every cycle jobs.
func newPhase(cycle int) phase {
	return phase{cycle: cycle, start: time.Now(), cpu0: cpuTime()}
}

// add records a completed job, stamping its completion time and CPU.
func (ph *phase) add(j jobSample) {
	j.done = time.Since(ph.start)
	j.cpu = cpuTime() - ph.cpu0
	ph.jobs = append(ph.jobs, j)
	ph.ops += j.ops
}

// finish closes the phase.
func (ph *phase) finish() { ph.wall = time.Since(ph.start) }

// slice is a run of consecutive jobs of one phase.
type slice struct {
	dur, cpu                 time.Duration
	jobs, topos, shards, ops int
}

// targetSlices is how many slices a phase's rates are the median of.
const targetSlices = 10

// slices cuts the phase into consecutive slices of equal job count, a
// whole number of job-mix rounds each, so that a rate's median over
// slices shrugs off a burst of contention from outside the process.
func (ph *phase) slices() []slice {
	c := max(ph.cycle, 1)
	per := min(max(c, len(ph.jobs)/targetSlices/c*c), len(ph.jobs))
	if per == 0 {
		return nil
	}
	var out []slice
	var prevDone, prevCPU time.Duration
	for lo := 0; lo+per <= len(ph.jobs); lo += per {
		s := slice{jobs: per}
		for _, j := range ph.jobs[lo : lo+per] {
			s.topos += j.topologies
			s.shards += j.shards
			s.ops += j.ops
		}
		last := ph.jobs[lo+per-1]
		s.dur, s.cpu = last.done-prevDone, last.cpu-prevCPU
		prevDone, prevCPU = last.done, last.cpu
		out = append(out, s)
	}
	return out
}

// instance is one set-up workload, ready to measure.
type instance interface {
	// run measures jobs back to back for about d (at least a few, so
	// every run checks something) and returns what completed. tr, when
	// non-nil, records spans at every seam the workload instruments.
	run(d time.Duration, tr *Tracer) (phase, error)
	// layers replays and probes the workload's layers under tr and
	// fills in its per-layer metrics (trace mode only).
	layers(tr *Tracer, out map[string]float64) error
	// check verifies every output the run produced and returns the ops
	// attempted and failed plus a digest of the fixed check set.
	check() (attempted, failed int, digest string, err error)
	// sizes reports the workload's input sizes and sample counts.
	sizes() map[string]int
	close()
}

// workload names a benchmark workload, how to set it up, and the
// scenarios whose golden results its check replays. prepare, when set,
// writes one scratch directory per set-up before any set-up is timed.
// BENCHMARK.json says why each was chosen.
type workload struct {
	name    string
	setup   func(e *env) (instance, error)
	goldens []string
	prepare func(e *env, n int) ([]string, error)
}

var workloads = []workload{
	{"des-testbed", setupDES, []string{"fig15-end-to-end", "client-churn"}, nil},
	{"phy-sweep", setupPHY, []string{"fig3-naive-scaling-drop", "fig7-link-snr", "fig8-office-a",
		"fig9-office-b", "fig10-smart-precoding", "fig11-optimal-gap", "ablation-correlation"}, nil},
	{"serve-mixed", setupServe, []string{"fig12-spatial-reuse"}, prepareServe},
	{"dispatch-sweep", setupSweep, []string{"fig12-spatial-reuse"}, nil},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

// env is one benchmark invocation's settings.
type env struct {
	seed    int64
	seconds time.Duration
	trace   bool
	tiny    bool   // test-sized inputs
	tmp     string // scratch root for stores (inside the checkout)
	golden  string // the scenario package's golden results
	// prepared holds the scratch directories the workload's prepare step
	// wrote and no set-up has taken yet.
	prepared []string
	out      string // spans and profiles
	exe      string // this binary, for pprof symbolization
	// mutate, when non-nil, rewrites every blob serve-mixed writes to
	// its store: the fault-injection hook of the benchmark's tests.
	mutate func(name string, data []byte) []byte
}

// report is everything one invocation measured.
type report struct {
	workload  string
	setup     []time.Duration
	phase     phase
	attempted int
	failed    int
	digest    string
	sizes     map[string]int
	layers    map[string]float64
	profile   string
	// What the host took from the process while it measured: the
	// machine's CPU steal time and the time the process's threads
	// waited, runnable, for a CPU.
	stealS, runqS float64
	peakRSS       float64 // MB, see rssSampler.peakMB
}

// setupSeconds returns each set-up's duration in seconds.
func (r *report) setupSeconds() []float64 {
	var out []float64
	for _, d := range r.setup {
		out = append(out, d.Seconds())
	}
	return out
}

// correct reports whether every checked output matched.
func (r *report) correct() bool { return r.failed == 0 }

// execute sets the workload up setupReps times, measures the last set-up,
// and checks its outputs.
func execute(e *env, w workload) (*report, error) {
	rep := &report{workload: w.name, layers: map[string]float64{}}
	// Flush what earlier processes left dirty, so its writeback is not
	// charged to this run's fsyncs.
	syscall.Sync()
	if w.prepare != nil {
		var err error
		e.prepared, err = w.prepare(e, setupReps)
		defer func() {
			for _, d := range e.prepared {
				removeScratch(d)
			}
		}()
		if err != nil {
			return nil, fmt.Errorf("%s prepare: %w", w.name, err)
		}
	}
	var inst instance
	for i := 0; i < setupReps; i++ {
		if inst != nil {
			inst.close()
		}
		t0 := time.Now()
		var err error
		inst, err = w.setup(e)
		if err != nil {
			return nil, fmt.Errorf("%s setup: %w", w.name, err)
		}
		rep.setup = append(rep.setup, time.Since(t0))
	}
	defer inst.close()

	steal0, runq0 := stealSeconds(), runqueueSeconds()
	// Freed set-up heap goes back to the OS, so every phase starts from
	// the same resident set.
	debug.FreeOSMemory()
	rss := startRSS()
	if !e.trace {
		ph, err := inst.run(e.seconds, nil)
		if err != nil {
			return nil, err
		}
		rep.phase = ph
	} else if err := traced(e, inst, rep); err != nil {
		return nil, err
	}

	rep.peakRSS = rss.peakMB()
	rep.stealS, rep.runqS = stealSeconds()-steal0, runqueueSeconds()-runq0

	var err error
	rep.attempted, rep.failed, rep.digest, err = inst.check()
	if err != nil {
		return nil, err
	}
	ga, gf, err := checkGoldens(e.golden, w.goldens)
	if err != nil {
		return nil, err
	}
	rep.attempted += ga
	rep.failed += gf
	rep.sizes = inst.sizes()
	return rep, nil
}

// traced is the -trace 1 run: half the time untraced, half traced under
// a CPU profile, then the workload's replay and probes. The tracing
// overhead is the traced half's wall time per op against the untraced
// half's.
func traced(e *env, inst instance, rep *report) error {
	plain, err := inst.run(e.seconds/2, nil)
	if err != nil {
		return err
	}
	tr := NewTracer()
	prof := filepath.Join(e.out, fmt.Sprintf("%s-seed%d.cpu.pprof", rep.workload, e.seed))
	f, err := os.Create(prof)
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return err
	}
	ph, err := inst.run(e.seconds/2, tr)
	pprof.StopCPUProfile()
	f.Close()
	if err != nil {
		return err
	}
	rep.phase = ph
	rep.profile = prof
	// Root spans are the jobs: their summed wall time per op, against
	// the untraced half's summed job latency per op.
	var roots, plainSum time.Duration
	for _, s := range tr.Named(rootSpan) {
		roots += s.Dur()
	}
	for _, j := range plain.jobs {
		plainSum += j.latency
	}
	if plain.ops > 0 && ph.ops > 0 && plainSum > 0 {
		perPlain := float64(plainSum) / float64(plain.ops)
		perTraced := float64(roots) / float64(ph.ops)
		rep.layers["trace.overhead_pct"] = 100 * (perTraced/perPlain - 1)
	}
	rep.layers["scenario.self_ms"] = meanSelf(tr.Spans(), "scenario.run", time.Millisecond)
	if err := inst.layers(tr, rep.layers); err != nil {
		return err
	}
	return tr.WriteJSONL(filepath.Join(e.out, fmt.Sprintf("%s-seed%d.spans.jsonl", rep.workload, e.seed)))
}

// rootSpan names the per-job root span every workload records.
const rootSpan = "job"

// metrics derives the printed metrics from a report.
func (r *report) metrics(trace bool) map[string]float64 {
	if trace {
		out := map[string]float64{}
		for _, m := range perLayer {
			out[m.name] = r.layers[m.name] // a layer the workload does not exercise reads 0
		}
		return out
	}
	ph := r.phase
	var all, fresh []float64
	for _, j := range ph.jobs {
		ms := float64(j.latency) / float64(time.Millisecond)
		all = append(all, ms)
		if j.class == "fresh" {
			fresh = append(fresh, ms)
		}
	}
	// Rates and CPU per op are medians over the phase's slices.
	var topos, jobs, shards, cpu []float64
	for _, s := range ph.slices() {
		secs := s.dur.Seconds()
		topos = append(topos, float64(s.topos)/secs)
		jobs = append(jobs, float64(s.jobs)/secs)
		shards = append(shards, float64(s.shards)/secs)
		cpu = append(cpu, float64(s.cpu)/float64(time.Millisecond)/float64(s.ops))
	}
	return map[string]float64{
		"setup_s":          quantile(r.setupSeconds(), 0.5),
		"topologies_per_s": quantile(topos, 0.5),
		"jobs_per_s":       quantile(jobs, 0.5),
		"job_p50_ms":       quantile(all, 0.5),
		"fresh_job_p50_ms": quantile(fresh, 0.5),
		"shards_per_s":     quantile(shards, 0.5),
		"cpu_ms_per_op":    quantile(cpu, 0.5),
		"peak_rss_mb":      r.peakRSS,
		"fail_rate":        failRate(r.failed, r.attempted),
	}
}

// failRateFloor is what fail_rate reads when no op failed: a metric may
// not read 0. It lies far below one failure in any run's attempted ops.
const failRateFloor = 1e-9

// failRate is failed over attempted ops, floored at failRateFloor. It
// does not depend on how many ops fit in the run unless some failed.
func failRate(failed, attempted int) float64 {
	return max(float64(failed)/float64(max(attempted, 1)), failRateFloor)
}

// jobP90 is the 90th-percentile job latency in ms.
func (r *report) jobP90() float64 {
	var all []float64
	for _, j := range r.phase.jobs {
		all = append(all, float64(j.latency)/float64(time.Millisecond))
	}
	return quantile(all, 0.9)
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for an empty sample).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// stealSeconds returns the CPU time the hypervisor has taken from this
// machine's CPUs since boot (the steal column of /proc/stat), 0 when
// /proc does not say.
func stealSeconds() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	return ticks / 100 // USER_HZ
}

// runqueueSeconds returns how long the process's live threads have
// waited, runnable, for a CPU (the second field of each thread's
// /proc schedstat), 0 when /proc does not say.
func runqueueSeconds() float64 {
	paths, _ := filepath.Glob("/proc/self/task/*/schedstat")
	var ns float64
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		if f := strings.Fields(string(b)); len(f) >= 2 {
			v, _ := strconv.ParseFloat(f[1], 64)
			ns += v
		}
	}
	return ns / 1e9
}

// rssEvery is how often rssSampler reads the resident set.
const rssEvery = 10 * time.Millisecond

// rssSampler reads the process's resident set every rssEvery while a
// timed phase runs.
type rssSampler struct {
	stop, done chan struct{}
	mb         []float64
}

func startRSS() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(rssEvery)
		defer t.Stop()
		for {
			s.mb = append(s.mb, rssMB())
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

// peakMB stops the sampler and returns the median, over ten equal
// windows of the phase, of each window's peak resident set. A single
// peak is a race between the allocator and a garbage collector that
// contention from outside can starve: one run in ten read twice the
// others. A window's peak is still a peak, and the median over windows
// moves only when the program's footprint does.
func (s *rssSampler) peakMB() float64 {
	close(s.stop)
	<-s.done
	per := max(len(s.mb)/targetSlices, 1)
	var peaks []float64
	for lo := 0; lo+per <= len(s.mb); lo += per {
		peaks = append(peaks, slices.Max(s.mb[lo:lo+per]))
	}
	return quantile(peaks, 0.5)
}

// rssMB returns the process's resident set in MB, 0 when /proc does not
// say.
func rssMB() float64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0
	}
	return pages * float64(os.Getpagesize()) / (1 << 20)
}

// cpuModel returns the host's CPU model name, "unknown" when /proc does
// not say.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// hostLine is the record of where and on what a run was measured.
func hostLine(e *env, r *report) string {
	rec := map[string]any{
		"workload":   r.workload,
		"seed":       e.seed,
		"seconds":    e.seconds.Seconds(),
		"trace":      e.trace,
		"go":         runtime.Version(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu":        cpuModel(),
		"goos":       runtime.GOOS + "/" + runtime.GOARCH,
		"sizes":      r.sizes,
		"setup_s":    r.setupSeconds(),
		// The tail is recorded, not gated: on a shared host it moved
		// more between runs than any bound the benchmark may set.
		"job_p90_ms": r.jobP90(),
		// Host contention while the timed phase ran.
		"steal_s":    r.stealS,
		"runqueue_s": r.runqS,
		"samples": map[string]int{
			"jobs":        len(r.phase.jobs),
			"ops":         r.phase.ops,
			"setups":      len(r.setup),
			"checked_ops": r.attempted,
		},
	}
	b, _ := json.Marshal(rec)
	return "host " + string(b)
}

// pprofTop returns the profile's top-5 functions by flat CPU, as `go
// tool pprof -top` prints them.
func pprofTop(exe, profile string) []string {
	cmd := exec.Command("go", "tool", "pprof", "-top", "-nodecount=5", exe, profile)
	cmd.Env = append(os.Environ(), "PPROF_TMPDIR="+filepath.Dir(profile))
	out, err := cmd.Output()
	if err != nil {
		return []string{"(go tool pprof unavailable: " + err.Error() + ")"}
	}
	lines := strings.Split(strings.TrimRight(string(out), "\n"), "\n")
	for i, l := range lines {
		if strings.HasPrefix(strings.TrimSpace(l), "flat ") {
			return lines[i:]
		}
	}
	return lines
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// result assembles the final JSON line.
func (r *report) result(trace bool) resultLine {
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	vals := r.metrics(trace)
	out := resultLine{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricOut{}}
	for _, m := range defs {
		out.Metrics[m.name] = metricOut{Value: vals[m.name], Unit: m.unit}
	}
	return out
}

func main() {
	var (
		wl      = flag.String("workload", "", "workload to run: des-testbed, phy-sweep, serve-mixed or dispatch-sweep")
		seed    = flag.Int64("seed", 1, "seed the workload's inputs derive from")
		seconds = flag.Float64("seconds", 10, "how long the timed phase measures")
		trace   = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		root    = flag.String("root", ".", "checkout root; all scratch files stay under it")
		build   = flag.String("build", ".bench_build", "directory for stores, spans and profiles")
	)
	flag.Parse()
	if err := run(*wl, *seed, *seconds, *trace, *root, *build); err != nil {
		fmt.Fprintln(os.Stderr, "midas-perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds float64, trace int, root, build string) error {
	w, err := findWorkload(name)
	if err != nil {
		return err
	}
	if trace != 0 && trace != 1 {
		return errors.New("-trace must be 0 or 1")
	}
	if seconds <= 0 {
		return errors.New("-seconds must be positive")
	}
	if !filepath.IsAbs(build) {
		build = filepath.Join(root, build)
	}
	e := &env{
		seed:    seed,
		seconds: time.Duration(seconds * float64(time.Second)),
		trace:   trace == 1,
		tmp:     filepath.Join(build, "tmp"),
		golden:  filepath.Join(root, goldenDir),
		out:     filepath.Join(build, "out"),
	}
	for _, d := range []string{e.tmp, e.out} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return err
		}
	}
	if e.exe, err = os.Executable(); err != nil {
		return err
	}
	rep, err := execute(e, w)
	if err != nil {
		return err
	}
	fmt.Println(hostLine(e, rep))
	fmt.Printf("digest %s %s\n", rep.workload, rep.digest)
	if e.trace {
		printLayers(rep)
		for _, l := range pprofTop(e.exe, rep.profile) {
			fmt.Println("pprof " + l)
		}
	}
	line, err := json.Marshal(rep.result(e.trace))
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !rep.correct() {
		return fmt.Errorf("%s: %d of %d checked ops produced wrong output", rep.workload, rep.failed, rep.attempted)
	}
	return nil
}

// printLayers prints the per-layer metrics the workload measured, one
// per line, beside the profile's top-5.
func printLayers(rep *report) {
	for _, m := range perLayer {
		if v, ok := rep.layers[m.name]; ok {
			fmt.Printf("layer %-32s %14.4f %s\n", m.name, v, m.unit)
		}
	}
}
