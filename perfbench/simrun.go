package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"prunesim/internal/scenario"
)

func runSweep(rc *runCtx) error {
	return runSim(rc, "sweep", sweepCells)
}

func runStream(rc *runCtx) error {
	return runSim(rc, "stream_immediate", streamCells)
}

// repeatUnits runs f at least once and until budget has elapsed.
func repeatUnits(budget time.Duration, f func() (unit, error)) ([]unit, error) {
	start := time.Now()
	var us []unit
	for len(us) == 0 || time.Since(start) < budget {
		u, err := f()
		if err != nil {
			return nil, err
		}
		us = append(us, u)
	}
	return us, nil
}

// runSim measures a simulation workload. Every trial of every repetition is
// an operation; it fails when its result digest differs from the expected
// one: the stored reference for this seed when there is one, otherwise the
// first repetition's. Set-up is what every repetition then uses: this
// seed's reference digests and the cells generated from the seed,
// normalized and validated.
func runSim(rc *runCtx, name string, gen func(seed uint64) []scenario.Cell) error {
	type inputs struct {
		cells []scenario.Cell
		want  []string
	}
	in, err := measureSetup(rc, func() (inputs, error) {
		ref, err := loadReference()
		if err != nil {
			return inputs{}, err
		}
		cells := gen(rc.seed)
		for i := range cells {
			if cells[i].Scenario, err = cells[i].Scenario.Normalize(); err != nil {
				return inputs{}, fmt.Errorf("cell %s|%s: %w", cells[i].Series, cells[i].X, err)
			}
		}
		want, _ := ref.lookup(name, rc.seed)
		return inputs{cells, want}, nil
	}, func(inputs) {})
	if err != nil {
		return err
	}
	want := in.want
	if want == nil {
		note("%s: no stored reference for seed %d; checking repetitions against the first", name, rc.seed)
	}
	check := func(pass string, us []unit) {
		for i, u := range us {
			rc.rep.attempt(len(u.digests))
			if want == nil {
				want = u.digests
			}
			if n := mismatches(u.digests, want); n > 0 {
				rc.rep.failN(n, "%s %s repetition %d: %d of %d trial digests differ from the reference", name, pass, i, n, len(u.digests))
			}
		}
	}

	plain, err := repeatUnits(rc.budget, func() (unit, error) { return sweepUnit(in.cells) })
	if err != nil {
		return err
	}
	check("untraced", plain)
	rates := make([]float64, len(plain))
	walls := make([]float64, len(plain))
	var tasks int64
	var alloc uint64
	for i, u := range plain {
		rates[i] = float64(u.tasks) / u.wall.Seconds()
		walls[i] = u.wall.Seconds()
		tasks += u.tasks
		alloc += u.allocBytes
	}
	var rob float64
	for _, r := range plain[0].robustness {
		rob += r
	}
	rob /= float64(len(plain[0].robustness))
	note("%s: %d repetitions of %d trials, %d tasks each, median %.3fs", name, len(plain), len(plain[0].digests), plain[0].tasks, median(walls))
	// An op is a simulated task; a call is one Engine.Sweep of the cells.
	rc.rep.e2e("ops_per_s", "1/s", median(rates))
	rc.rep.e2e("call_p50_ms", "ms", median(walls)*1e3)
	rc.rep.e2e("robustness_pct", "%", rob)
	rc.rep.e2e("alloc_bytes_per_op", "B", float64(alloc)/float64(tasks))
	if !rc.traced() {
		return nil
	}

	tr := NewTracer()
	traced, err := repeatUnits(rc.budget, func() (unit, error) { return tracedUnit(in.cells, tr) })
	if err != nil {
		return err
	}
	check("traced", traced)
	reportSimLayers(rc, tr, in.cells, traced, median(walls))
	return writeTrace(rc, name, tr)
}

// reportSimLayers turns a traced pass into per-layer metrics, per
// repetition of the workload's unit.
func reportSimLayers(rc *runCtx, tr *Tracer, cells []scenario.Cell, us []unit, untracedWall float64) {
	reps := float64(len(us))
	per := func(v int64) float64 { return float64(v) / reps }
	ms := func(ns int64) float64 { return float64(ns) / reps / 1e6 }
	heuristics := map[string]bool{}
	for _, c := range cells {
		heuristics[c.Scenario.Platform.Heuristic] = true
	}
	for h := range heuristics {
		if a := tr.Agg(spanMap + h); a.count > 0 {
			scanned, assigned := tr.Count("sched.scanned."+h), tr.Count("sched.assigned."+h)
			rc.rep.layer("sched.map_calls."+h, "count", per(a.count))
			rc.rep.layer("sched.map_ms."+h, "ms", ms(a.total))
			rc.rep.layer("sched.scanned."+h, "count", per(scanned))
			rc.rep.layer("sched.assigned."+h, "count", per(assigned))
			rc.rep.layer("sched.assign_ratio."+h, "ratio", float64(assigned)/float64(scanned))
		}
		if a := tr.Agg(spanPick + h); a.count > 0 {
			rc.rep.layer("sched.pick_calls."+h, "count", per(a.count))
			rc.rep.layer("sched.pick_ms."+h, "ms", ms(a.total))
		}
	}
	ev := tr.Agg(spanEvent)
	rc.rep.layer("sim.events", "count", per(tr.Count("sim.events")))
	rc.rep.layer("sim.self_ms", "ms", ms(ev.self))
	rc.rep.layer("sim.event_p50_us", "us", ev.hist.quantile(50)/1e3)
	rc.rep.layer("sim.event_p99_us", "us", ev.hist.quantile(99)/1e3)
	next := tr.Agg(spanNext)
	rc.rep.layer("workload.next_calls", "count", per(next.count))
	rc.rep.layer("workload.next_ms", "ms", ms(next.total))
	rc.rep.layer("core.dropped_reactive", "count", per(tr.Count("core.dropped_reactive")))
	rc.rep.layer("core.dropped_proactive", "count", per(tr.Count("core.dropped_proactive")))
	rc.rep.layer("core.deferrals", "count", per(tr.Count("core.deferrals")))

	trial := tr.Agg(spanTrial)
	var compile, trialSum, wallSum time.Duration
	walls := make([]float64, len(us))
	for i, u := range us {
		compile += u.compile
		trialSum += u.trialSum
		wallSum += u.wall
		walls[i] = u.wall.Seconds()
	}
	rc.rep.layer("scenario.compile_ms", "ms", compile.Seconds()*1e3/reps)
	rc.rep.layer("scenario.trial_p50_ms", "ms", trial.hist.quantile(50)/1e6)
	rc.rep.layer("scenario.trial_max_ms", "ms", float64(trial.max)/1e6)
	if len(cells) > 1 {
		rc.rep.layer("scenario.parallel_eff", "ratio", trialSum.Seconds()/(wallSum.Seconds()*parallelism))
	}
	rc.rep.layer("trace.overhead_pct", "%", (median(walls)/untracedWall-1)*100)
}

// recordReference recomputes the reference digests of both simulation
// workloads for seeds first..last (written "first-last") and writes them to
// path, keeping entries for other seeds.
func recordReference(seeds, path string) error {
	lo, hi, ok := strings.Cut(seeds, "-")
	first, err1 := strconv.ParseUint(lo, 10, 64)
	last, err2 := strconv.ParseUint(hi, 10, 64)
	if !ok || err1 != nil || err2 != nil || last < first {
		return fmt.Errorf("--record-reference wants FIRST-LAST, got %q", seeds)
	}
	ref, err := loadReference()
	if err != nil {
		ref = reference{}
	}
	type job struct {
		name string
		seed uint64
	}
	var jobs []job
	for s := first; s <= last; s++ {
		jobs = append(jobs, job{"sweep", s}, job{"stream_immediate", s})
	}
	var mu sync.Mutex
	var firstErr error
	next := make(chan job)
	var wg sync.WaitGroup
	for w := 0; w < parallelism; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range next {
				cells := sweepCells(j.seed)
				if j.name == "stream_immediate" {
					cells = streamCells(j.seed)
				}
				u, err := sweepUnit(cells)
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = fmt.Errorf("%s seed %d: %w", j.name, j.seed, err)
				}
				if err == nil {
					if ref[j.name] == nil {
						ref[j.name] = map[string][]string{}
					}
					ref[j.name][fmt.Sprint(j.seed)] = u.digests
				}
				mu.Unlock()
			}
		}()
	}
	for _, j := range jobs {
		next <- j
	}
	close(next)
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	// One line per workload and seed keeps the file diffable.
	var b strings.Builder
	b.WriteString("{\n")
	names := make([]string, 0, len(ref))
	for n := range ref {
		names = append(names, n)
	}
	sort.Strings(names)
	for i, n := range names {
		fmt.Fprintf(&b, "  %q: {\n", n)
		keys := make([]string, 0, len(ref[n]))
		for k := range ref[n] {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(a, c int) bool {
			x, _ := strconv.ParseUint(keys[a], 10, 64)
			y, _ := strconv.ParseUint(keys[c], 10, 64)
			return x < y
		})
		for j, k := range keys {
			d, err := json.Marshal(ref[n][k])
			if err != nil {
				return err
			}
			fmt.Fprintf(&b, "    %q: %s", k, d)
			if j < len(keys)-1 {
				b.WriteString(",")
			}
			b.WriteString("\n")
		}
		b.WriteString("  }")
		if i < len(names)-1 {
			b.WriteString(",")
		}
		b.WriteString("\n")
	}
	b.WriteString("}\n")
	return os.WriteFile(path, []byte(b.String()), 0o644)
}
