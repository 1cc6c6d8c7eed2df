package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path"
	"strings"
	"testing"
	"time"

	"repro/internal/store"
)

// tinyEnv is a test-sized run writing its scratch files under t.TempDir.
func tinyEnv(t *testing.T, trace bool) *env {
	t.Helper()
	dir := t.TempDir()
	e := &env{seed: 7, seconds: 300 * time.Millisecond, trace: trace, tiny: true,
		tmp: dir + "/tmp", out: dir + "/out", golden: "../" + goldenDir}
	for _, d := range []string{e.tmp, e.out} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

// ownLayer is one per-layer metric each workload must measure non-zero.
var ownLayer = map[string]string{
	"des-testbed":    "mac.txops",
	"phy-sweep":      "precoding.solve_us",
	"serve-mixed":    "store.reads",
	"dispatch-sweep": "dispatch.lease_ms",
}

func TestWorkloadsTiny(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", w.name, trace), func(t *testing.T) {
				e := tinyEnv(t, trace)
				rep, err := execute(e, w)
				if err != nil {
					t.Fatal(err)
				}
				res := rep.result(trace)
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v failed=%d attempted=%d", res.Correct, res.Failed, res.Attempted)
				}
				defs := endToEnd
				if trace {
					defs = perLayer
				}
				if len(res.Metrics) != len(defs) {
					t.Fatalf("%d metrics, want %d", len(res.Metrics), len(defs))
				}
				for _, m := range defs {
					got, ok := res.Metrics[m.name]
					if !ok || got.Unit != m.unit {
						t.Errorf("metric %s: got %+v, want unit %s", m.name, got, m.unit)
					}
					if math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
						t.Errorf("metric %s is %v", m.name, got.Value)
					}
					if !trace && got.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", m.name, got.Value)
					}
				}
				if trace && res.Metrics[ownLayer[w.name]].Value <= 0 {
					t.Errorf("%s not measured", ownLayer[w.name])
				}
				if len(rep.digest) != 64 {
					t.Errorf("digest %q", rep.digest)
				}
			})
		}
	}
}

// TestDigestRepeats: the same seed yields the same outputs.
func TestDigestRepeats(t *testing.T) {
	w, _ := findWorkload("phy-sweep")
	var digests []string
	for i := 0; i < 2; i++ {
		rep, err := execute(tinyEnv(t, false), w)
		if err != nil {
			t.Fatal(err)
		}
		digests = append(digests, rep.digest)
	}
	if digests[0] != digests[1] {
		t.Fatalf("digests differ: %v", digests)
	}
}

// flipResultByte corrupts one digit inside an entry's result and
// re-frames the entry so that the store's own checksum still verifies:
// a wrong result that only an output check can catch.
func flipResultByte(name string, data []byte) []byte {
	if _, ok := store.HashFromEntryName(path.Base(name)); !ok || strings.Count(name, "/") != 2 {
		return data // manifests and other non-entry blobs pass through
	}
	nl := bytes.IndexByte(data, '\n')
	fields := strings.Fields(string(data[:nl]))
	payload := append([]byte(nil), data[nl+1:]...)
	at := bytes.Index(payload, []byte(`"values"`))
	for at >= 0 && at < len(payload) && (payload[at] < '0' || payload[at] > '9') {
		at++
	}
	if at < 0 || at >= len(payload) {
		return data
	}
	payload[at] = '0' + (payload[at]-'0'+1)%10
	sum := sha256.Sum256(payload)
	header := fmt.Sprintf("%s %s %d\n", fields[0], hex.EncodeToString(sum[:]), len(payload))
	return append([]byte(header), payload...)
}

func TestCorruptedStoreResultCounts(t *testing.T) {
	e := tinyEnv(t, false)
	e.mutate = flipResultByte
	w, _ := findWorkload("serve-mixed")
	rep, err := execute(e, w)
	if err != nil {
		t.Fatal(err)
	}
	res := rep.result(false)
	if res.Correct || res.Failed == 0 || res.Metrics["fail_rate"].Value <= failRateFloor {
		t.Fatalf("corrupted store results not counted: correct=%v failed=%d/%d fail_rate=%v",
			res.Correct, res.Failed, res.Attempted, res.Metrics["fail_rate"].Value)
	}
}

func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var cfg struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &cfg); err != nil {
		t.Fatal(err)
	}
	if len(cfg.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(cfg.Workloads), len(workloads))
	}
	for i, w := range cfg.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %s vs %s", i, w.Name, workloads[i].name)
		}
	}
	for _, l := range []struct {
		json []struct{ Name, Unit string }
		defs []metricDef
	}{{cfg.EndToEnd, endToEnd}, {cfg.PerLayer, perLayer}} {
		if len(l.json) != len(l.defs) {
			t.Fatalf("BENCHMARK.json lists %d metrics, the program %d", len(l.json), len(l.defs))
		}
		for i, m := range l.json {
			if m.Name != l.defs[i].name || m.Unit != l.defs[i].unit {
				t.Errorf("metric %d: %s %s vs %s %s", i, m.Name, m.Unit, l.defs[i].name, l.defs[i].unit)
			}
		}
	}
}

func TestSelfTimeSubtractsCoveredChildren(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "parent", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 50},  // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // runs past the parent
	}
	if got := SelfTimes(spans)[1]; got != 100-40-10 {
		t.Fatalf("self time %v, want 50", got)
	}
}

func TestSlicesAreWholeRounds(t *testing.T) {
	ph := phase{cycle: 7}
	for i := 1; i <= 75; i++ {
		ph.jobs = append(ph.jobs, jobSample{topologies: 1, ops: 1,
			done: time.Duration(i) * time.Millisecond, cpu: time.Duration(i) * time.Millisecond})
	}
	sl := ph.slices()
	if len(sl) != 10 {
		t.Fatalf("%d slices, want 10", len(sl))
	}
	for _, s := range sl {
		if s.jobs != 7 || s.dur != 7*time.Millisecond {
			t.Fatalf("slice %+v", s)
		}
	}
}

// TestGoldenMismatchCounts: a golden result that the engine no longer
// reproduces counts as a failed op.
func TestGoldenMismatchCounts(t *testing.T) {
	name := "fig12-spatial-reuse"
	if a, f, err := checkGoldens("../"+goldenDir, []string{name}); err != nil || a != 1 || f != 0 {
		t.Fatalf("committed golden: attempted=%d failed=%d err=%v", a, f, err)
	}
	raw, err := os.ReadFile("../" + goldenDir + "/" + name + ".json")
	if err != nil {
		t.Fatal(err)
	}
	at := bytes.Index(raw, []byte(`"values"`))
	for at >= 0 && (raw[at] < '1' || raw[at] > '8') {
		at++
	}
	raw[at]++
	dir := t.TempDir()
	if err := os.WriteFile(dir+"/"+name+".json", raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if a, f, err := checkGoldens(dir, []string{name}); err != nil || a != 1 || f != 1 {
		t.Fatalf("altered golden: attempted=%d failed=%d err=%v, want 1 failed", a, f, err)
	}
}

func TestFailRate(t *testing.T) {
	if got := failRate(0, 1000); got != failRateFloor {
		t.Errorf("no failures: %v, want the floor", got)
	}
	if failRate(0, 10) != failRate(0, 100000) {
		t.Error("with no failures fail_rate depends on the op count")
	}
	if got := failRate(1, 4); got != 0.25 {
		t.Errorf("1 of 4: %v", got)
	}
}
