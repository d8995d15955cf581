package experiments

import (
	"testing"

	"prunesim/internal/golden"
	"prunesim/internal/scenario"
)

// TestGoldenFigures pins every figure driver at test scale: the reported
// figure and, per swept cell, every per-trial Result (every field, floats by
// bits), in testdata/golden_figures.json.
func TestGoldenFigures(t *testing.T) {
	gf := golden.Open(t, "testdata/golden_figures.json")
	for _, name := range Names() {
		opt, err := quickOpt().withDefaults()
		if err != nil {
			t.Fatal(err)
		}
		h := &harness{opt: opt, eng: scenario.NewEngine(opt.Parallelism)}
		fr, err := drivers[name](h)
		if err != nil {
			t.Fatalf("figure %s: %v", name, err)
		}
		if len(h.swept) == 0 && len(fr.Points) == 0 {
			t.Fatalf("figure %s swept no cells", name)
		}
		gf.Check(t, name+"/figure", golden.Digest(fr))
		for _, cr := range h.swept {
			gf.Check(t, name+"/"+cr.Series+"@"+cr.X, golden.Digest(cr.Outcome.Results, cr.Outcome.Robustness))
		}
	}
}
