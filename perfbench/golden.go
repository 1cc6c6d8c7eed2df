package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"

	"repro/internal/scenario"
)

// goldenDir is where the scenario package keeps its committed golden
// results, relative to the checkout root.
const goldenDir = "internal/scenario/testdata/golden"

// goldenFile is the golden files' format: the resolved spec with its
// parallelism zeroed, and the result it must reproduce byte for byte.
type goldenFile struct {
	Spec   scenario.Spec   `json:"spec"`
	Result scenario.Result `json:"result"`
}

// resultBytes is a result serialised as the golden files store it. It
// does not depend on the host: the spec's parallelism is zeroed.
func resultBytes(spec scenario.Spec, res scenario.Result) ([]byte, error) {
	spec.Parallelism = 0
	b, err := json.MarshalIndent(goldenFile{Spec: spec, Result: res}, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// checkGoldens runs each named scenario's golden spec through the
// registry at parallelism nproc and requires the result to equal the
// committed golden file byte for byte. This is the fixed reference the
// replay checks cannot give: a wrong but finite result from a change to
// the engine counts as a failed op here. An engine error counts too.
func checkGoldens(dir string, names []string) (attempted, failed int, err error) {
	for _, name := range names {
		raw, err := os.ReadFile(filepath.Join(dir, name+".json"))
		if err != nil {
			return 0, 0, err
		}
		var gf goldenFile
		if err := json.Unmarshal(raw, &gf); err != nil {
			return 0, 0, err
		}
		sc, err := scenario.Find(gf.Spec.Scenario)
		if err != nil {
			return 0, 0, err
		}
		spec := gf.Spec
		spec.Parallelism = nproc()
		attempted++
		res, err := runSpec(specJob{sc: sc, spec: spec}, nil, 0, 0)
		if err != nil {
			failed++
			continue
		}
		got, err := resultBytes(gf.Spec, res)
		if err != nil {
			return 0, 0, err
		}
		if !bytes.Equal(got, raw) {
			failed++
		}
	}
	return attempted, failed, nil
}
