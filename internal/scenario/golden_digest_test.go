package scenario

import (
	"path/filepath"
	"testing"

	"prunesim/internal/golden"
)

// TestGoldenScenarioResults pins every per-trial Result (every field,
// floats by bits) and the robustness summaries of each shipped scenario at
// TestShippedScenarios scale, in testdata/golden_scenarios.json.
func TestGoldenScenarioResults(t *testing.T) {
	paths, err := filepath.Glob("../../examples/scenarios/*.json")
	if err != nil {
		t.Fatal(err)
	}
	gf := golden.Open(t, "testdata/golden_scenarios.json")
	eng := NewEngine(2)
	for _, path := range paths {
		s, err := Load(path)
		if err != nil {
			t.Fatal(err)
		}
		s.Run.Trials = 2
		s.Run.Scale = 0.06
		out, err := eng.Run(s)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		gf.Check(t, filepath.Base(path), golden.Digest(out.Results, out.Robustness, out.WeightedRobustness))
	}
}
