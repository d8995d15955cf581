package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"prunesim/internal/randx"
	"prunesim/internal/scenario"
	"prunesim/internal/service"
	"prunesim/internal/store"
	"prunesim/internal/trace"
)

// jobs_http: one client in a closed loop submits small inline scenarios to
// POST /v1/jobs and waits on the job's SSE stream for "done". Most
// submissions repeat an earlier scenario and are answered from the disk
// store; the rest are new and run on the engine before being stored.

const (
	// missEvery: one submission in missEvery is a new scenario. The
	// mix is an assumption, not observed traffic: no trace of real job
	// submissions exists. It is kept low because each miss costs the store
	// an fsync, and at one in eight those fsyncs kept a shared disk busy
	// enough to slow later runs of a sequence. Hits and misses are timed
	// apart, so the mix moves the sample counts of each, how much of a pass
	// goes to engine runs and fsyncs (whose after-effects reach the hits
	// that follow), and store.hit_ratio.
	missEvery = 32
	// passOps is the length of one untraced pass. Passes repeat, each on a
	// fresh server and store, until the budget is spent: the server keeps
	// every job, so one pass bounded by time instead would let the
	// program's speed set its memory use. It is long enough for a p90 over
	// one pass's misses.
	passOps = 4000
	// tracedJobOps is the fixed length of the traced pass.
	tracedJobOps = 800
)

// jobScenario is the i-th distinct scenario of a seed: service_smoke-sized
// (400 tasks over 150 time units, two trials), cycling through the three
// heterogeneous batch heuristics.
func jobScenario(seed uint64, i int) scenario.Scenario {
	exclude := 10
	return scenario.Scenario{
		Name:     fmt.Sprintf("perfbench_job_%d", i),
		Workload: scenario.Workload{Pattern: "spiky", Tasks: 400, TimeSpan: 150, Spikes: 2, SpikeFactor: 3},
		Platform: scenario.Platform{Heuristic: []string{"MM", "MSD", "MMU"}[i%3]},
		Prune:    scenario.Prune{Enabled: true},
		Run:      scenario.Run{Trials: 2, Seed: deriveSeed(seed, fmt.Sprintf("job-%d", i)), ExcludeBoundary: &exclude},
	}
}

// jobScript returns n submissions as scenario indices: n/missEvery of them
// (at least one, always the first) are new scenarios at uniformly chosen
// positions, the others uniformly chosen earlier ones. A fixed count of new
// ones gives every seed the same mix of work, set-up included.
func jobScript(seed uint64, n int) []int {
	rng := randx.New(deriveSeed(seed, "jobs"))
	isNew := make([]bool, n)
	isNew[0] = true
	for _, k := range rng.Perm(n - 1)[:max(n/missEvery, 1)-1] {
		isNew[k+1] = true
	}
	ops := make([]int, n)
	fresh := 0
	for k := range ops {
		if isNew[k] {
			ops[k] = fresh
			fresh++
		} else {
			ops[k] = rng.IntN(fresh)
		}
	}
	return ops
}

// tracedStore records a span around every store call.
type tracedStore struct {
	store.Store
	tr   *Tracer
	hits atomic.Int64
}

func (s *tracedStore) Get(key string) (*scenario.Outcome, bool) {
	start := s.tr.Now()
	o, ok := s.Store.Get(key)
	s.tr.Record("store.get", 0, start, s.tr.Now())
	if ok {
		s.hits.Add(1)
	}
	return o, ok
}

func (s *tracedStore) Put(key string, o *scenario.Outcome) {
	start := s.tr.Now()
	s.Store.Put(key, o)
	s.tr.Record("store.put", 0, start, s.tr.Now())
}

// jobsRig is one set-up of the workload: a server over a fresh disk store
// in a temp dir, one client, and the request bodies.
type jobsRig struct {
	h      *harness
	cl     *client
	dir    string
	ops    []int
	bodies [][]byte
	scens  []scenario.Scenario
	store  *tracedStore // traced rigs only
}

func newJobsRig(rc *runCtx, nOps int, tr *Tracer) (*jobsRig, error) {
	dir, err := os.MkdirTemp(rc.workdir, "jobs-store-")
	if err != nil {
		return nil, err
	}
	disk, err := store.OpenDisk(dir)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	rig := &jobsRig{dir: dir, ops: jobScript(rc.seed, nOps)}
	var st store.Store = disk
	if tr != nil {
		rig.store = &tracedStore{Store: disk, tr: tr}
		st = rig.store
	}
	reg, err := tenants(1)
	if err != nil {
		disk.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	svc := service.New(service.Config{Workers: 1, Parallelism: parallelism, Store: st, Tenants: reg})
	if rig.h, err = startHarness(svc, tr); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	rig.cl = newClient(rig.h, 0)
	for k := range rig.ops {
		for len(rig.scens) <= rig.ops[k] {
			sc := jobScenario(rc.seed, len(rig.scens))
			raw, err := json.Marshal(sc)
			if err == nil {
				var body []byte
				body, err = json.Marshal(service.SubmitRequest{Scenario: raw})
				rig.bodies = append(rig.bodies, body)
			}
			if err != nil {
				rig.close()
				return nil, err
			}
			rig.scens = append(rig.scens, sc)
		}
	}
	return rig, nil
}

func (r *jobsRig) close() {
	r.cl.close()
	if err := r.h.close(); err != nil {
		fmt.Printf("closing server: %v\n", err)
	}
	if err := os.RemoveAll(r.dir); err != nil {
		fmt.Printf("removing %s: %v\n", r.dir, err)
	}
}

// jobResult is one submission's outcome as the client saw it.
type jobResult struct {
	ok         bool // passed every check
	hit        bool
	latency    time.Duration // submit to "done"
	whole      time.Duration // submit to trials CSV fetched, or to the error
	req        int64
	csv        []byte
	trialsMS   []float64 // per-trial run times from the SSE progress events
	robustness float64   // mean robustness over trials, from the "done" event
}

// submit posts scenario idx, waits for "done" on the job's event stream,
// then fetches the trials CSV, which latency leaves out and whole counts.
func (r *jobsRig) submit(idx int) (res jobResult, err error) {
	start := time.Now()
	defer func() { res.whole = time.Since(start) }()
	status, body, req, err := r.cl.do(http.MethodPost, "/v1/jobs", r.bodies[idx])
	res.req = req
	if err != nil || (status != http.StatusOK && status != http.StatusAccepted) {
		return res, fmt.Errorf("submit: status %d, %v: %.200s", status, err, body)
	}
	var st service.Status
	if err := json.Unmarshal(body, &st); err != nil {
		return res, fmt.Errorf("submit reply: %w", err)
	}
	res.hit = st.CacheHit
	status, stream, _, err := r.cl.do(http.MethodGet, "/v1/jobs/"+st.ID+"/events", nil)
	if err != nil || status != http.StatusOK {
		return res, fmt.Errorf("events: status %d, %v", status, err)
	}
	res.latency = time.Since(start)
	done := false
	sc := bufio.NewScanner(bytes.NewReader(stream))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var ev service.Event
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			return res, fmt.Errorf("event: %w", err)
		}
		switch ev.Type {
		case "progress":
			res.trialsMS = append(res.trialsMS, ev.Trial.DurationSeconds*1e3)
		case "failed":
			return res, fmt.Errorf("job %s failed: %s", st.ID, ev.Error)
		case "done":
			done = true
			if ev.Robustness == nil {
				return res, fmt.Errorf("job %s: done event without robustness", st.ID)
			}
			res.robustness = ev.Robustness.Mean
		}
	}
	if !done {
		return res, fmt.Errorf("job %s: stream ended without done", st.ID)
	}
	status, res.csv, _, err = r.cl.do(http.MethodGet, "/v1/jobs/"+st.ID+"/trials.csv", nil)
	if err != nil || status != http.StatusOK {
		return res, fmt.Errorf("trials.csv: status %d, %v", status, err)
	}
	return res, nil
}

// jobsPass runs the rig's script in a closed loop. A submission fails when
// its reply errs, when it is a hit or a miss against expectation, or when a
// hit's trials CSV differs from its miss's. served holds each scenario's
// CSV from its miss.
func jobsPass(rc *runCtx, r *jobsRig) (hits, misses []jobResult, served map[int][]byte) {
	served = map[int][]byte{}
	for k := 0; k < len(r.ops); k++ {
		idx := r.ops[k]
		rc.rep.attempt(1)
		res, err := r.submit(idx)
		prev, seen := served[idx]
		switch {
		case err != nil:
			rc.rep.fail("job %d (scenario %d): %v", k, idx, err)
		case res.hit != seen:
			rc.rep.fail("job %d (scenario %d): cache hit %t, want %t", k, idx, res.hit, seen)
		case seen && !bytes.Equal(res.csv, prev):
			rc.rep.fail("job %d (scenario %d): cache hit's trials CSV differs from its miss's", k, idx)
		default:
			res.ok = true
		}
		if !res.ok {
			// A failed submission counts where it was expected, with an
			// infinite latency (see latencies).
			res.hit = seen
		}
		if !res.hit && res.ok {
			served[idx] = res.csv
		}
		// The CSV has been checked; keeping it for every job of every pass
		// would make the run's memory grow with the number of passes.
		res.csv = nil
		if res.hit {
			hits = append(hits, res)
		} else {
			misses = append(misses, res)
		}
	}
	return hits, misses, served
}

// checkServed compares each scenario's served trials CSV with an
// in-process engine run of the same scenario.
func checkServed(rc *runCtx, r *jobsRig, served map[int][]byte) error {
	e := scenario.NewEngine(parallelism)
	for idx, got := range served {
		out, err := e.Run(r.scens[idx])
		if err != nil {
			return err
		}
		var want bytes.Buffer
		if err := trace.WriteTrials(&want, out.Results); err != nil {
			return err
		}
		if !bytes.Equal(got, want.Bytes()) {
			rc.rep.fail("scenario %d: served trials CSV differs from an in-process engine run", idx)
		}
	}
	return nil
}

// hitRate returns cache-hit jobs per second at the median time the client
// spent on one, from submit to trials CSV fetched. Misses are left out:
// each waits for an fsync of the store's disk, whose time on a shared host
// varies between runs minutes apart (their cost is in job_miss_p50_ms and
// store.put_ms). A median leaves out the stalls of a shared host, which
// fall on a few jobs: rates over whole passes, and over windows of 100
// hits, moved by more than a quarter between runs of one seed minutes
// apart, while the median job latency moved by a tenth.
func hitRate(hits []jobResult) float64 {
	whole := make([]float64, len(hits))
	for i, h := range hits {
		whole[i] = h.whole.Seconds()
	}
	return 1 / median(whole)
}

// latencies returns submit-to-done times in ms, +Inf for failed ones.
func latencies(rs []jobResult) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = math.Inf(1)
		if r.ok {
			out[i] = r.latency.Seconds() * 1e3
		}
	}
	return out
}

func runJobs(rc *runCtx) error {
	rig, err := measureSetup(rc, func() (*jobsRig, error) { return newJobsRig(rc, passOps, nil) }, (*jobsRig).close)
	if err != nil {
		return err
	}
	var hits, misses []jobResult
	var served map[int][]byte
	var alloc uint64
	start := time.Now()
	for pass := 0; pass == 0 || time.Since(start) < rc.budget; pass++ {
		if pass > 0 {
			rig.close()
			// Collect the closed server before starting the next, so the
			// peak resident set is one pass's, not set by how many passes
			// ran before the collector did.
			runtime.GC()
			if rig, err = newJobsRig(rc, passOps, nil); err != nil {
				return err
			}
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		h, m, s := jobsPass(rc, rig)
		runtime.ReadMemStats(&m1)
		alloc += m1.TotalAlloc - m0.TotalAlloc
		hits, misses = append(hits, h...), append(misses, m...)
		if served == nil {
			served = s
			continue
		}
		for idx, csv := range s {
			if !bytes.Equal(csv, served[idx]) {
				rc.rep.fail("pass %d, scenario %d: trials CSV differs from the first pass's", pass, idx)
			}
		}
	}
	err = checkServed(rc, rig, served)
	rig.close()
	if err != nil {
		return err
	}
	all := append(latencies(hits), latencies(misses)...)
	hit := newTiming("cache-hit job latency (ms)", latencies(hits))
	miss := newTiming("cache-miss job latency (ms)", latencies(misses))
	call := newTiming("job latency (ms)", all)
	note("%s\n%s\n%s", call, hit, miss)
	p50, err := call.at(50)
	if err != nil {
		return err
	}
	var rob float64
	var ok int
	for _, r := range append(hits, misses...) {
		if r.ok {
			rob += r.robustness
			ok++
		}
	}
	// An op and a call are both one job: submitted, waited on until done,
	// and its trials CSV fetched (the call's latency stops at done). The
	// rate is taken at the median hit (see hitRate).
	rc.rep.e2e("ops_per_s", "1/s", hitRate(hits))
	rc.rep.e2e("call_p50_ms", "ms", p50)
	rc.rep.e2e("robustness_pct", "%", rob/float64(max(ok, 1)))
	rc.rep.e2e("alloc_bytes_per_op", "B", float64(alloc)/float64(len(all)))
	// Hits and misses apart are per-layer diagnostics: each miss waits for
	// an fsync of the store's disk, whose time on a shared host moved from
	// 0.5 to 2 ms between runs minutes apart; that moved job_miss_p50_ms by
	// up to half between sets of runs, and the slowest fsyncs, and the
	// stalls they cause, moved job_miss_p90_ms and job_hit_p99_ms by a third
	// or more between runs.
	for _, m := range []struct {
		name string
		t    timing
		p    float64
	}{{"job_miss_p50_ms", miss, 50}, {"job_miss_p90_ms", miss, 90}, {"job_hit_p50_ms", hit, 50}, {"job_hit_p99_ms", hit, 99}} {
		v, err := m.t.at(m.p)
		if err != nil {
			return err
		}
		rc.rep.layer(m.name, "ms", v)
	}
	if !rc.traced() {
		return nil
	}

	tr := NewTracer()
	trig, err := newJobsRig(rc, tracedJobOps, tr)
	if err != nil {
		return err
	}
	defer trig.close()
	thits, tmisses, tserved := jobsPass(rc, trig)
	if err := checkServed(rc, trig, tserved); err != nil {
		return err
	}
	get, put := tr.Agg("store.get"), tr.Agg("store.put")
	rc.rep.layer("store.gets", "count", float64(get.count))
	rc.rep.layer("store.get_us", "us", float64(get.total)/float64(get.count)/1e3)
	rc.rep.layer("store.puts", "count", float64(put.count))
	rc.rep.layer("store.put_ms", "ms", float64(put.total)/float64(put.count)/1e6)
	rc.rep.layer("store.hit_ratio", "ratio", float64(trig.store.hits.Load())/float64(get.count))
	m := trig.h.svc.Metrics()
	rc.rep.layer("service.queue_wait_ms", "ms", m.QueueWait.Sum()/float64(m.QueueWait.Count())*1e3)
	rc.rep.layer("service.job_run_ms", "ms", m.RunDuration.Sum()/float64(m.RunDuration.Count())*1e3)
	sub := tr.Agg("service.handler.submit")
	rc.rep.layer("service.handler_p50_us", "us", sub.hist.quantile(50)/1e3)
	rc.rep.layer("service.handler_p99_us", "us", sub.hist.quantile(99)/1e3)
	var trials []float64
	for _, r := range tmisses {
		trials = append(trials, r.trialsMS...)
	}
	tt := newTiming("trial", trials)
	rc.rep.layer("scenario.trial_p50_ms", "ms", percentile(tt.sorted, 50))
	rc.rep.layer("scenario.trial_max_ms", "ms", tt.sorted[len(tt.sorted)-1])
	rc.rep.layer("tenant.rejected", "count", float64(trig.h.rejected()))
	thit := newTiming("traced cache-hit job latency (ms)", latencies(thits))
	uP50, _ := hit.at(50)
	tP50, err := thit.at(50)
	if err != nil {
		return err
	}
	rc.rep.layer("trace.overhead_pct", "%", (tP50/uP50-1)*100)
	return writeTrace(rc, "jobs_http", tr)
}
