// Command perfbench is the repository benchmark. It drives prunesim from
// outside, through the public functions of its internal packages, on one of
// four workloads generated from a seed, checks every output, and prints one
// JSON result line. README.md in this directory describes the workloads and
// metrics; run it through run.sh, which builds it first:
//
//	bash perfbench/run.sh --workload sweep --seed 1 --seconds 12 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report accumulates a run's operation counts and metrics. An untraced run
// keeps only end-to-end metrics, a traced run only per-layer ones.
type report struct {
	traced bool

	mu        sync.Mutex
	attempted int64
	failed    int64
	logged    int
	metrics   map[string]metric
}

// maxLogged bounds the failure messages printed per run.
const maxLogged = 20

func (r *report) attempt(n int) {
	r.mu.Lock()
	r.attempted += int64(n)
	r.mu.Unlock()
}

// fail counts one failed operation and logs its reason.
func (r *report) fail(format string, args ...any) { r.failN(1, format, args...) }

func (r *report) failN(n int, format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.failed += int64(n)
	if r.logged < maxLogged {
		r.logged++
		fmt.Fprintf(os.Stderr, "FAILED: "+format+"\n", args...)
	}
}

// e2e records an end-to-end metric (untraced runs only).
func (r *report) e2e(name, unit string, v float64) {
	if !r.traced {
		r.set(name, unit, v)
	}
}

// layer records a per-layer metric (traced runs only).
func (r *report) layer(name, unit string, v float64) {
	if r.traced {
		r.set(name, unit, v)
	}
}

func (r *report) set(name, unit string, v float64) {
	r.mu.Lock()
	r.metrics[name] = metric{Value: v, Unit: unit}
	r.mu.Unlock()
}

// metricSpec is a metric BENCHMARK.json lists, with its unit.
type metricSpec struct{ name, unit string }

// endToEnd are the metrics every untraced run of every workload reports.
// An "op" and a "call" are defined per workload in README.md.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"call_p50_ms", "ms"},
	{"robustness_pct", "%"},
	{"alloc_bytes_per_op", "B"},
	{"peak_rss_mb", "MB"},
}

// perLayer returns the metrics every traced run of every workload reports.
// A workload reports 0 for the metrics of layers its spans never reach.
func perLayer() []metricSpec {
	var ms []metricSpec
	for _, sh := range sweepHeuristics {
		h := sh.name
		ms = append(ms,
			metricSpec{"sched.map_calls." + h, "count"},
			metricSpec{"sched.map_ms." + h, "ms"},
			metricSpec{"sched.scanned." + h, "count"},
			metricSpec{"sched.assigned." + h, "count"},
			metricSpec{"sched.assign_ratio." + h, "ratio"})
	}
	return append(ms, []metricSpec{
		{"sched.pick_calls.KPB", "count"}, {"sched.pick_ms.KPB", "ms"},
		{"sim.events", "count"}, {"sim.self_ms", "ms"}, {"sim.event_p50_us", "us"}, {"sim.event_p99_us", "us"},
		{"workload.next_calls", "count"}, {"workload.next_ms", "ms"},
		{"core.dropped_reactive", "count"}, {"core.dropped_proactive", "count"}, {"core.deferrals", "count"},
		{"scenario.compile_ms", "ms"}, {"scenario.trial_p50_ms", "ms"}, {"scenario.trial_max_ms", "ms"},
		{"scenario.parallel_eff", "ratio"},
		{"service.handler_p50_us", "us"}, {"service.handler_p99_us", "us"}, {"service.transport_p50_us", "us"},
		{"service.queue_wait_ms", "ms"}, {"service.job_run_ms", "ms"},
		{"admission.decide_us", "us"}, {"admission.replay_decide_ns", "ns"}, {"admission.accept_ratio", "ratio"},
		{"admission.evictions", "count"}, {"admission.stale_completions", "count"},
		{"store.gets", "count"}, {"store.get_us", "us"}, {"store.puts", "count"}, {"store.put_ms", "ms"},
		{"store.hit_ratio", "ratio"},
		{"tenant.rejected", "count"},
		{"decide_p50_us.low", "us"}, {"decide_p50_us.high", "us"}, {"decide_p99_us.low", "us"},
		{"decide_p99_us.high", "us"}, {"decide_max_rps", "1/s"}, {"gen.lag_p99_ms", "ms"},
		{"job_hit_p50_ms", "ms"}, {"job_miss_p50_ms", "ms"}, {"job_miss_p90_ms", "ms"}, {"job_hit_p99_ms", "ms"},
		{"trace.overhead_pct", "%"},
	}...)
}

// complete checks the run's metrics against the declared ones: each must
// be declared with the unit it was recorded in, and an untraced run must
// have recorded every end-to-end metric. A traced run records 0 for every
// per-layer metric its workload did not reach, and returns their names.
func (r *report) complete() (unreached []string, err error) {
	want := endToEnd
	if r.traced {
		want = perLayer()
	}
	units := map[string]string{}
	for _, m := range want {
		units[m.name] = m.unit
	}
	for name, m := range r.metrics {
		if u, ok := units[name]; !ok || u != m.Unit {
			return nil, fmt.Errorf("metric %s (%s) is not declared with that unit", name, m.Unit)
		}
	}
	for _, m := range want {
		if _, ok := r.metrics[m.name]; ok {
			continue
		}
		if !r.traced {
			return nil, fmt.Errorf("end-to-end metric %s was not measured", m.name)
		}
		r.metrics[m.name] = metric{Unit: m.unit}
		unreached = append(unreached, m.name)
	}
	return unreached, nil
}

// runCtx is what every workload receives.
type runCtx struct {
	seed    uint64
	budget  time.Duration
	workdir string
	rep     *report
}

// traced reports whether this run measures the per-layer metrics.
func (rc *runCtx) traced() bool { return rc.rep.traced }

// note prints a line for the reader of the run's output.
func note(format string, args ...any) { fmt.Printf(format+"\n", args...) }

// A run sets its workload up at least setupMinRuns times, and more, up to
// setupMaxRuns, until setupBudget has been spent setting up; setup_s is the
// median, and the last instance is the one measured. A cheap set-up is
// repeated many times, so stray slow set-ups do not move its median.
const (
	setupMinRuns = 9
	setupMaxRuns = 201
	setupBudget  = 500 * time.Millisecond
)

// measureSetup runs setup as described above, tears down all instances but
// the last, and records the median set-up time as setup_s. It collects
// garbage before each set-up, so that no set-up pays for collecting the
// instances torn down before it.
func measureSetup[T any](rc *runCtx, setup func() (T, error), teardown func(T)) (T, error) {
	var last T
	var times []float64
	var spent time.Duration
	for i := 0; i < setupMinRuns || (i < setupMaxRuns && spent < setupBudget); i++ {
		if i > 0 {
			teardown(last)
		}
		runtime.GC()
		start := time.Now()
		v, err := setup()
		if err != nil {
			return v, fmt.Errorf("set-up: %w", err)
		}
		d := time.Since(start)
		spent += d
		times = append(times, d.Seconds())
		last = v
	}
	rc.rep.e2e("setup_s", "s", median(times))
	return last, nil
}

// writeTrace writes a traced pass's spans under the work directory.
func writeTrace(rc *runCtx, workload string, tr *Tracer) error {
	dir := filepath.Join(rc.workdir, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, rc.seed))
	if err := tr.WriteFile(path); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	note("trace written to %s", path)
	return nil
}

// peakRSSMB returns the process's peak resident set size.
func peakRSSMB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return float64(ru.Maxrss) / 1024, nil // Linux reports KiB
}

var workloads = map[string]func(*runCtx) error{
	"sweep":            runSweep,
	"stream_immediate": runStream,
	"decide_http":      runDecide,
	"jobs_http":        runJobs,
}

func main() {
	name := flag.String("workload", "", "workload: sweep, stream_immediate, decide_http or jobs_http")
	seed := flag.Uint64("seed", 1, "seed every input is generated from")
	seconds := flag.Float64("seconds", 10, "measurement budget of each pass, in seconds")
	traceFlag := flag.Int("trace", 0, "1: run an untraced and a traced pass and report per-layer metrics")
	workdir := flag.String("workdir", ".bench_build", "directory for temp stores and traces")
	record := flag.String("record-reference", "", "recompute the reference digests for seeds FIRST-LAST into perfbench/reference.json, then exit")
	flag.Parse()

	if *record != "" {
		if err := recordReference(*record, "perfbench/reference.json"); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	run, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %v), --seconds > 0 and --trace 0 or 1\n", names)
		os.Exit(2)
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	rc := &runCtx{
		seed:    *seed,
		budget:  time.Duration(*seconds * float64(time.Second)),
		workdir: *workdir,
		rep:     &report{traced: *traceFlag == 1, metrics: map[string]metric{}},
	}
	if err := run(rc); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	rss, err := peakRSSMB()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	rc.rep.e2e("peak_rss_mb", "MB", rss)
	unreached, err := rc.rep.complete()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if len(unreached) > 0 {
		note("layers this workload does not reach, reported as 0: %v", unreached)
	}
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rc.rep.failed == 0 && rc.rep.attempted > 0, rc.rep.attempted, rc.rep.failed, rc.rep.metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}
