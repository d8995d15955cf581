package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"prunesim/internal/core"
	"prunesim/internal/pet"
	"prunesim/internal/scenario"
	"prunesim/internal/sched"
	"prunesim/internal/sim"
	"prunesim/internal/task"
	"prunesim/internal/workload"
)

// The two simulation workloads. Both repeat one fixed unit of work (a whole
// sweep, or one long trial) with the same inputs until the time budget is
// spent, and report the median unit. Repeating identical inputs lets every
// repetition be checked against the same per-trial digests.

// Span names of the simulation layers.
const (
	spanTrial = "scenario.trial"
	spanEvent = "sim.event"
	spanNext  = "workload.next"
	spanMap   = "sched.map."  // + heuristic name
	spanPick  = "sched.pick." // + heuristic name
)

// sweepHeuristics are the sweep's heuristics: the paper's heterogeneous
// batch heuristics on the standard platform and its homogeneous ones on the
// homogeneous platform (Figures 9b and 10b).
var sweepHeuristics = []struct{ name, profile string }{
	{"MM", scenario.ProfileStandard},
	{"MSD", scenario.ProfileStandard},
	{"MMU", scenario.ProfileStandard},
	{"EDF", scenario.ProfileHomogeneous},
	{"SJF", scenario.ProfileHomogeneous},
	{"FCFS-RR", scenario.ProfileHomogeneous},
}

const (
	// sweepTasks is the paper's highest oversubscription level; sweepScale
	// shrinks task count and time span together, which keeps that level
	// while a whole sweep fits a short run several times.
	sweepTasks  = 25000
	sweepScale  = 0.25
	sweepTrials = 2
	// streamTasks makes the streaming trial a million-task one.
	streamTasks = 1000000
	// parallelism is the trial parallelism of the sweep: the benchmark
	// host's two cores.
	parallelism = 2
)

// sweepCells builds the sweep: every heuristic with and without pruning,
// spiky arrivals. Each cell draws its own workloads, so one unit averages
// over 24 independent trials instead of repeating one arrival pattern
// across cells.
func sweepCells(seed uint64) []scenario.Cell {
	var cells []scenario.Cell
	for _, h := range sweepHeuristics {
		for _, pruned := range []bool{true, false} {
			name := fmt.Sprintf("%s-pruned-%t", h.name, pruned)
			s := scenario.Scenario{
				Name:     name,
				Workload: scenario.Workload{Pattern: workload.ModelSpiky, Tasks: sweepTasks},
				Platform: scenario.Platform{Profile: h.profile, Mode: "batch", Heuristic: h.name},
				Prune:    scenario.Prune{Enabled: pruned},
				Run:      scenario.Run{Trials: sweepTrials, Seed: deriveSeed(seed, "sweep/"+name), Scale: sweepScale},
			}
			cells = append(cells, scenario.Cell{Series: h.name, X: fmt.Sprintf("pruned=%t", pruned), Scenario: s})
		}
	}
	return cells
}

// streamCells is the long streaming trial, a single cell: KPB in immediate
// mode with pruning, under bursty Markov-modulated arrivals at the paper's
// 15K oversubscription level, with the tail compression million-task runs
// use.
func streamCells(seed uint64) []scenario.Cell {
	s := scenario.Scenario{
		Name: "stream_immediate",
		Workload: scenario.Workload{
			Pattern:  workload.ModelMMPP,
			Tasks:    streamTasks,
			TimeSpan: 3000 * streamTasks / 15000,
			MMPP:     &scenario.MMPPSpec{Rates: []float64{1, 8}, MeanHold: []float64{300, 75}},
		},
		Platform: scenario.Platform{Mode: "immediate", Heuristic: "KPB", PCTTailEps: 1e-4},
		Prune:    scenario.Prune{Enabled: true},
		Run:      scenario.Run{Trials: 1, Seed: deriveSeed(seed, "stream")},
	}
	return []scenario.Cell{{Series: "stream", X: "KPB", Scenario: s}}
}

// cell is one scenario lowered to simulator inputs through public
// functions, the way scenario.Engine lowers it internally. The traced pass
// needs the task source, the heuristic and the clock in hand to decorate
// them; its digests must equal the engine's, which checks this mirror.
type cell struct {
	label  string
	s      scenario.Scenario // normalized
	matrix *pet.Matrix
	wcfg   workload.Config
	model  workload.ArrivalModel
	mode   sim.Mode
	prune  core.Config
}

// compileCell normalizes s and builds its trial-independent inputs,
// sharing PET matrices by profile through matrices.
func compileCell(label string, s scenario.Scenario, matrices map[string]*pet.Matrix) (*cell, error) {
	s, err := s.Normalize()
	if err != nil {
		return nil, err
	}
	if len(s.Events) > 0 || s.Platform.PET != nil {
		return nil, fmt.Errorf("cell %s: platform events and PET overrides are not mirrored", label)
	}
	m, ok := matrices[s.Platform.Profile]
	if !ok {
		if m, err = s.Platform.BuildMatrix(); err != nil {
			return nil, err
		}
		matrices[s.Platform.Profile] = m
	}
	wcfg, err := workloadConfig(s)
	if err != nil {
		return nil, err
	}
	model, err := workload.NewArrivalModel(wcfg, m.NumTaskTypes())
	if err != nil {
		return nil, err
	}
	prune, err := s.Prune.CoreConfig(m.NumTaskTypes())
	if err != nil {
		return nil, err
	}
	mode := sim.BatchMode
	switch s.Platform.Mode {
	case "immediate":
		mode = sim.ImmediateMode
	case "batch":
	default:
		return nil, fmt.Errorf("cell %s: platform.mode must be set explicitly", label)
	}
	return &cell{label: label, s: s, matrix: m, wcfg: wcfg, model: model, mode: mode, prune: prune}, nil
}

// workloadConfig lowers a normalized scenario's workload with run.scale
// applied, as the scenario package does, for the two arrival models the
// benchmark uses.
func workloadConfig(s scenario.Scenario) (workload.Config, error) {
	w, scale := s.Workload, s.Run.Scale
	cfg := workload.Config{
		Model:           w.Pattern,
		NumTasks:        int(float64(w.Tasks) * scale),
		TimeSpan:        w.TimeSpan * scale,
		NumSpikes:       w.Spikes,
		SpikeFactor:     w.SpikeFactor,
		IATVarianceFrac: w.IATVarianceFrac,
		BetaLo:          w.BetaLo,
		BetaHi:          w.BetaHi,
		ValueLo:         w.ValueLo,
		ValueHi:         w.ValueHi,
		Seed:            s.Run.Seed,
	}
	switch w.Pattern {
	case workload.ModelSpiky:
	case workload.ModelMMPP:
		cfg.MMPP.Rates = append([]float64(nil), w.MMPP.Rates...)
		for _, h := range w.MMPP.MeanHold {
			cfg.MMPP.MeanHold = append(cfg.MMPP.MeanHold, h*scale)
		}
	default:
		return cfg, fmt.Errorf("workload pattern %q is not mirrored", w.Pattern)
	}
	return cfg, nil
}

// source returns a fresh streaming task source for one trial.
func (c *cell) source(trial int) *workload.Source {
	w := c.wcfg
	w.Trial = trial
	return workload.NewSourceWith(c.matrix, c.model, w)
}

// config returns the simulator configuration of one trial with a fresh
// heuristic instance (some heuristics carry cursors).
func (c *cell) config() (sim.Config, error) {
	h, _, err := sched.ByName(c.s.Platform.Heuristic)
	if err != nil {
		return sim.Config{}, err
	}
	slots := c.s.Platform.Slots
	if slots == 0 {
		slots = sim.DefaultSlots
	}
	return sim.Config{
		Mode:                c.mode,
		Heuristic:           h,
		MachineTypes:        c.s.Platform.MachineTypes(c.matrix),
		Slots:               slots,
		Prune:               c.prune,
		Seed:                c.s.Run.Seed ^ 0xabcd, // the engine's execution-sampling seed
		ExcludeBoundary:     *c.s.Run.ExcludeBoundary,
		AutoExcludeBoundary: true,
		TailEps:             c.s.Platform.PCTTailEps,
	}, nil
}

// schedCounts counts the tasks one heuristic's Map calls scanned and
// assigned in one trial (call counts and times are the spans').
type schedCounts struct {
	scanned, assigned int64
}

// tracedBatch records a span around every Map call.
type tracedBatch struct {
	inner sched.Batch
	k     *Track
	span  string
	n     schedCounts
}

func (b *tracedBatch) Name() string { return b.inner.Name() }

func (b *tracedBatch) Map(ctx *sched.Context, unmapped []*task.Task) []sched.Assignment {
	b.k.Begin(b.span)
	out := b.inner.Map(ctx, unmapped)
	b.k.End()
	b.n.scanned += int64(len(unmapped))
	b.n.assigned += int64(len(out))
	return out
}

// tracedImmediate records a span around every Pick call.
type tracedImmediate struct {
	inner sched.Immediate
	k     *Track
	span  string
}

func (p *tracedImmediate) Name() string { return p.inner.Name() }

func (p *tracedImmediate) Pick(ctx *sched.Context, t *task.Task) int {
	p.k.Begin(p.span)
	j := p.inner.Pick(ctx, t)
	p.k.End()
	return j
}

// tracedSource records a span around every Next call. It forwards Recycle:
// without it the simulator would stop returning tasks to the source's
// arena, and the traced trial would allocate, and remember, every task.
type tracedSource struct {
	inner *workload.Source
	k     *Track
}

func (s *tracedSource) Next() (*task.Task, bool) {
	s.k.Begin(spanNext)
	t, ok := s.inner.Next()
	s.k.End()
	return t, ok
}

func (s *tracedSource) Recycle(t *task.Task) { s.inner.Recycle(t) }

// eventClock marks event boundaries: the simulator calls Advance once per
// event, before handling it, so each call ends one event span and starts
// the next. It never blocks, like the default simulated clock.
type eventClock struct{ k *Track }

func (c eventClock) Advance(float64) { c.k.Switch(spanEvent) }

// tracedTrial runs one trial of c with every decorator attached and checks
// that the trial span is exactly covered by the self times of its event,
// sched and workload spans.
func tracedTrial(c *cell, trial int, tr *Tracer) (*sim.Result, error) {
	cfg, err := c.config()
	if err != nil {
		return nil, err
	}
	k := tr.NewTrack()
	var counts *schedCounts
	var name, schedSpan string
	switch h := cfg.Heuristic.(type) {
	case sched.Batch:
		name = h.Name()
		b := &tracedBatch{inner: h, k: k, span: spanMap + name}
		cfg.Heuristic, counts, schedSpan = b, &b.n, b.span
	case sched.Immediate:
		name = h.Name()
		p := &tracedImmediate{inner: h, k: k, span: spanPick + name}
		cfg.Heuristic, schedSpan = p, p.span
	}
	cfg.Clock = eventClock{k}
	src := &tracedSource{inner: c.source(trial), k: k}
	// The trial span and its first event span open, and its last event
	// span and the trial close, at one instant each, so the event spans
	// tile the trial.
	ts := tr.Now()
	k.beginAt(spanTrial, ts)
	k.beginAt(spanEvent, ts)
	res, err := sim.RunStream(c.matrix, src, cfg)
	ts = tr.Now()
	k.endAt(ts)
	k.endAt(ts)
	if err != nil {
		return nil, err
	}
	covered := k.agg(spanEvent).self + k.agg(schedSpan).total + k.agg(spanNext).total
	if trialNS := k.agg(spanTrial).total; covered != trialNS {
		return nil, fmt.Errorf("trial %s/%d: event, sched and workload self times sum to %d ns, trial span is %d ns", c.label, trial, covered, trialNS)
	}
	k.Finish()
	if counts != nil {
		tr.AddCount("sched.scanned."+name, counts.scanned)
		tr.AddCount("sched.assigned."+name, counts.assigned)
	}
	tr.AddCount("sim.events", k.agg(spanEvent).count-1) // the first span precedes the first Advance
	tr.AddCount("core.dropped_reactive", int64(res.DroppedReactive))
	tr.AddCount("core.dropped_proactive", int64(res.DroppedProactive))
	tr.AddCount("core.deferrals", int64(res.Deferrals))
	return res, nil
}

// unit is one measured repetition of a simulation workload.
type unit struct {
	wall       time.Duration
	tasks      int64
	allocBytes uint64
	digests    []string // per trial, in (cell, trial) order
	robustness []float64
	// Traced units only.
	compile  time.Duration
	trialSum time.Duration
}

// sweepUnit runs the cells through scenario.Engine.Sweep on a fresh engine,
// so each unit pays the same PET-matrix and arrival-model compilation. Both
// simulation workloads measure it: the streaming trial is a sweep of one
// cell with one trial.
func sweepUnit(cells []scenario.Cell) (unit, error) {
	var u unit
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	out, err := scenario.NewEngine(parallelism).Sweep(cells)
	u.wall = time.Since(start)
	runtime.ReadMemStats(&m1)
	if err != nil {
		return u, err
	}
	u.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	for _, cr := range out {
		for _, r := range cr.Outcome.Results {
			if err := u.addResult(r); err != nil {
				return u, err
			}
		}
	}
	return u, nil
}

func (u *unit) addResult(r *sim.Result) error {
	d, err := resultDigest(r)
	if err != nil {
		return err
	}
	u.digests = append(u.digests, d)
	u.robustness = append(u.robustness, r.Robustness)
	u.tasks += int64(r.TotalTasks)
	return nil
}

// tracedUnit runs every (cell, trial) of cells with the decorators attached
// on a pool of `parallelism` goroutines, as the engine's sweep does.
func tracedUnit(cells []scenario.Cell, tr *Tracer) (unit, error) {
	var u unit
	start := time.Now()
	matrices := map[string]*pet.Matrix{}
	compiled := make([]*cell, len(cells))
	for i, c := range cells {
		var err error
		if compiled[i], err = compileCell(c.Series+"|"+c.X, c.Scenario, matrices); err != nil {
			return u, err
		}
	}
	u.compile = time.Since(start)
	type job struct{ cell, trial, slot int }
	var jobs []job
	for i, c := range compiled {
		for t := 0; t < c.s.Run.Trials; t++ {
			jobs = append(jobs, job{i, t, len(jobs)})
		}
	}
	results := make([]*sim.Result, len(jobs))
	durs := make([]time.Duration, len(jobs))
	errs := make([]error, len(jobs))
	next := make(chan job)
	var wg sync.WaitGroup
	for w := 0; w < parallelism; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range next {
				t0 := time.Now()
				results[j.slot], errs[j.slot] = tracedTrial(compiled[j.cell], j.trial, tr)
				durs[j.slot] = time.Since(t0)
			}
		}()
	}
	for _, j := range jobs {
		next <- j
	}
	close(next)
	wg.Wait()
	u.wall = time.Since(start)
	for i, r := range results {
		if errs[i] != nil {
			return u, errs[i]
		}
		u.trialSum += durs[i]
		if err := u.addResult(r); err != nil {
			return u, err
		}
	}
	return u, nil
}
