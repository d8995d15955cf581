package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
)

func TestHighestPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99},
		{9999, 99}, {10000, 99.9}, {100000, 99.99},
	} {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestTimingRule(t *testing.T) {
	samples := make([]float64, 500)
	for i := range samples {
		samples[i] = float64(500 - i) // 1..500, unsorted
	}
	tm := newTiming("t", samples)
	if v, err := tm.at(50); err != nil || v != 250 {
		t.Errorf("p50 = %v, %v; want 250", v, err)
	}
	if v, err := tm.at(90); err != nil || v != 450 {
		t.Errorf("p90 = %v, %v; want 450", v, err)
	}
	if _, err := tm.at(99); err == nil {
		t.Error("p99 of 500 samples has 5 beyond it; want an error")
	}
	if s := tm.String(); !strings.Contains(s, "n=500") || !strings.Contains(s, "p90=") {
		t.Errorf("String() = %q; want the sample count and p90", s)
	}
	failed := newTiming("f", append(samples, math.Inf(1)))
	if v, _ := failed.at(50); math.IsInf(v, 1) {
		t.Error("one failure must not move the median to +Inf")
	}
	if _, err := newTiming("empty", nil).at(50); err == nil {
		t.Error("median of no samples: want an error")
	}
}

func TestLogHistQuantile(t *testing.T) {
	var h logHist
	for ns := int64(1); ns <= 100000; ns++ {
		h.add(ns)
	}
	for _, p := range []float64{50, 90, 99} {
		want := p / 100 * 100000
		if got := h.quantile(p); math.Abs(got-want)/want > 0.07 {
			t.Errorf("p%v = %v, want %v within 7%%", p, got, want)
		}
	}
}

// fakeClock returns a tracer whose clock reads the values of ts in turn.
func fakeClock(ts ...int64) *Tracer {
	tr := NewTracer()
	i := 0
	tr.clock = func() int64 {
		v := ts[i]
		i++
		return v
	}
	return tr
}

func TestSpanSelfTime(t *testing.T) {
	// trial [0,100) holds map [10,30) and next [40,45) and a nested
	// map [50,70) holding next [55,60).
	tr := fakeClock(0, 10, 30, 40, 45, 50, 55, 60, 70, 100)
	k := tr.NewTrack()
	k.Begin("trial")
	k.Begin("map")
	k.End()
	k.Begin("next")
	k.End()
	k.Begin("map")
	k.Begin("next")
	k.End()
	k.End()
	k.End()
	k.Finish()
	for _, c := range []struct {
		name               string
		count, total, self int64
	}{
		{"trial", 1, 100, 100 - 20 - 5 - 20},
		{"map", 2, 40, 20 + 15},
		{"next", 2, 10, 10},
	} {
		a := tr.Agg(c.name)
		if a.count != c.count || a.total != c.total || a.self != c.self {
			t.Errorf("%s: count %d total %d self %d; want %d %d %d", c.name, a.count, a.total, a.self, c.count, c.total, c.self)
		}
	}
}

func TestSwitchTilesTime(t *testing.T) {
	// Events [0,10) [10,25) [25,40) with a map [12,20) inside the second.
	tr := fakeClock(0, 10, 12, 20, 25, 40)
	k := tr.NewTrack()
	k.Begin("event")
	k.Switch("event")
	k.Begin("map")
	k.End()
	k.Switch("event")
	k.End()
	k.Finish()
	ev, m := tr.Agg("event"), tr.Agg("map")
	if ev.count != 3 || ev.total != 40 || ev.self+m.total != 40 {
		t.Errorf("events: count %d total %d self %d, map %d; want 3 events tiling 40", ev.count, ev.total, ev.self, m.total)
	}
}

func TestSameSeedSameInputs(t *testing.T) {
	cfg, err := sessionConfig()
	if err != nil {
		t.Fatal(err)
	}
	a, err := generateScript(7, "open-0", cfg, 3000, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := generateScript(7, "open-0", cfg, 3000, 1)
	if err != nil {
		t.Fatal(err)
	}
	c, err := generateScript(8, "open-0", cfg, 3000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed gave different decide scripts")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds gave the same decide script")
	}
	kinds := map[opKind]int{}
	for _, op := range a {
		kinds[op.kind]++
	}
	for _, k := range []opKind{opDecide, opComplete, opFail, opRejoin} {
		if kinds[k] == 0 {
			t.Errorf("script has no ops of kind %d: %v", k, kinds)
		}
	}
	if !reflect.DeepEqual(jobScript(7, 500), jobScript(7, 500)) || reflect.DeepEqual(jobScript(7, 500), jobScript(8, 500)) {
		t.Error("job scripts must repeat by seed and differ across seeds")
	}
	fresh := 0
	for _, idx := range jobScript(7, passOps) {
		if idx == fresh {
			fresh++
		} else if idx > fresh {
			t.Fatalf("job script submits scenario %d before scenario %d", idx, fresh)
		}
	}
	if want := passOps / missEvery; fresh != want {
		t.Errorf("job script has %d new scenarios, want %d", fresh, want)
	}
	if !reflect.DeepEqual(sweepCells(7), sweepCells(7)) || reflect.DeepEqual(sweepCells(7), sweepCells(8)) {
		t.Error("sweep cells must repeat by seed and differ across seeds")
	}
}

func TestReplayMatchesGeneration(t *testing.T) {
	cfg, err := sessionConfig()
	if err != nil {
		t.Fatal(err)
	}
	ops, err := generateScript(3, "batch-0", cfg, 500, batchSize)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := replayNS(cfg, ops); err != nil {
		t.Fatal(err)
	}
	ops[len(ops)/2].want += "x"
	if _, err := replayNS(cfg, ops); err == nil {
		t.Error("replay accepted an altered expected reply")
	}
}

func TestCorruptedReferenceFails(t *testing.T) {
	ref, err := loadReference()
	if err != nil {
		t.Fatal(err)
	}
	const seed = 1
	want, ok := ref.lookup("sweep", seed)
	if !ok {
		t.Fatalf("no stored sweep reference for seed %d", seed)
	}
	u, err := sweepUnit(sweepCells(seed))
	if err != nil {
		t.Fatal(err)
	}
	if n := mismatches(u.digests, want); n != 0 {
		t.Fatalf("%d trials differ from the stored reference", n)
	}
	corrupt := append([]string(nil), want...)
	corrupt[3] = fmt.Sprintf("%016x", 0xdead)
	if n := mismatches(u.digests, corrupt); n != 1 {
		t.Errorf("a corrupted reference digest gave %d mismatches, want 1", n)
	}
	if n := mismatches(u.digests, want[1:]); n != len(u.digests) {
		t.Errorf("a truncated reference gave %d mismatches, want %d", n, len(u.digests))
	}
}

func TestDeclaredMetricsMatchManifest(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var manifest struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &manifest); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		kind     string
		listed   []struct{ Name, Unit string }
		declared []metricSpec
	}{{"end_to_end", manifest.EndToEnd, endToEnd}, {"per_layer", manifest.PerLayer, perLayer()}} {
		var listed []metricSpec
		for _, m := range c.listed {
			listed = append(listed, metricSpec{m.Name, m.Unit})
		}
		if !reflect.DeepEqual(listed, c.declared) {
			t.Errorf("%s in BENCHMARK.json:\n%v\nwant, as declared:\n%v", c.kind, listed, c.declared)
		}
	}
}

func TestReportComplete(t *testing.T) {
	plain := &report{metrics: map[string]metric{}}
	for _, m := range endToEnd[1:] {
		plain.set(m.name, m.unit, 1)
	}
	if _, err := plain.complete(); err == nil {
		t.Error("an untraced run missing setup_s passed")
	}
	plain.set("setup_s", "s", 1)
	if _, err := plain.complete(); err != nil {
		t.Errorf("an untraced run with every metric failed: %v", err)
	}
	plain.set("setup_s", "ms", 1)
	if _, err := plain.complete(); err == nil {
		t.Error("a metric in an undeclared unit passed")
	}

	traced := &report{traced: true, metrics: map[string]metric{}}
	traced.set("store.gets", "count", 5)
	unreached, err := traced.complete()
	if err != nil {
		t.Fatal(err)
	}
	if len(unreached) != len(perLayer())-1 || len(traced.metrics) != len(perLayer()) {
		t.Errorf("%d unreached of %d metrics; want all but store.gets", len(unreached), len(traced.metrics))
	}
	if m := traced.metrics["sim.events"]; m.Value != 0 || m.Unit != "count" {
		t.Errorf("unreached sim.events = %+v, want 0 count", m)
	}
	traced.set("tasks_per_s", "1/s", 1)
	if _, err := traced.complete(); err == nil {
		t.Error("an undeclared metric passed")
	}
}
