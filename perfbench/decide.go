package main

import (
	"container/heap"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"

	"prunesim/internal/admission"
	"prunesim/internal/randx"
	"prunesim/internal/scenario"
	"prunesim/internal/service"
)

// decide_http: admission over HTTP. Each of two tenants owns a session and
// a connection and replays a script of decide, complete and machine
// fail/rejoin requests generated from the seed. Every request carries an
// explicit session clock, so the verdicts depend on the script alone and
// are checked against an in-process admission.Session replay of it.

const (
	// rateLow and rateHigh are the fixed offered rates, in requests per
	// second over both connections: about 1/4 and 2/3 of the highest rate
	// this open loop sustained without a growing backlog (about 12000/s)
	// on a 2-core host when they were chosen.
	rateLow  = 3000.0
	rateHigh = 8000.0
	// latencyLimit is the p99 decide latency a rate must meet.
	latencyLimit = 2 * time.Millisecond

	// arrivalRate is the task arrival rate of a session, per unit of
	// session time: the paper's 25K level (25000 tasks over 3000 units).
	arrivalRate = 25000.0 / 3000
	// failEvery is the mean number of decides between machine failures;
	// a failed machine rejoins downFor decides later.
	failEvery = 800
	downFor   = 200
	// batchSize is the number of arrivals per decide/batch request.
	batchSize = 16

	// minPhaseOps makes every fixed-rate phase long enough for a p99 over
	// its decide requests.
	minPhaseOps = 2400
	// warmupOps are sent at rateLow before anything is timed, so the first
	// measured phase does not pay for cold connections, caches and heap.
	warmupOps = 2400
	// searchStepOps is the length of one max-rate search step.
	searchStepOps = 2400
	// searchUps and searchBisections bound the max-rate search: a ladder
	// of x1.25 steps up from the high rate, then bisection.
	searchUps        = 10
	searchBisections = 4
	// batchOps bounds the closed-loop batch script of each tenant.
	batchOps = 6000
)

// sessionRequest is the platform every session registers: the standard
// heterogeneous platform with KPB and the paper's pruning defaults.
func sessionRequest() service.SessionRequest {
	return service.SessionRequest{
		Platform: scenario.Platform{Heuristic: "KPB"},
		Prune:    scenario.Prune{Enabled: true},
	}
}

// sessionConfig lowers sessionRequest the way POST /v1/sessions does.
func sessionConfig() (admission.Config, error) {
	req := sessionRequest()
	p := req.Platform.WithDefaults()
	m, err := p.BuildMatrix()
	if err != nil {
		return admission.Config{}, err
	}
	prune, err := req.Prune.WithDefaults().CoreConfig(m.NumTaskTypes())
	if err != nil {
		return admission.Config{}, err
	}
	return admission.Config{Matrix: m, MachineTypes: p.MachineTypes(m), Heuristic: p.Heuristic, Slots: p.Slots, Prune: prune}, nil
}

type opKind uint8

const (
	opDecide opKind = iota
	opBatch
	opComplete
	opFail
	opRejoin
)

// sessionOp is one scripted request.
type sessionOp struct {
	kind    opKind
	spec    admission.TaskSpec   // opDecide
	specs   []admission.TaskSpec // opBatch
	now     float64
	taskID  int // opComplete
	machine int // opFail, opRejoin
	path    string
	body    []byte // nil: no body
	want    string // canonical reply
}

// decisions is the number of admission decisions op asks for.
func (op *sessionOp) decisions() int {
	switch op.kind {
	case opDecide:
		return 1
	case opBatch:
		return len(op.specs)
	}
	return 0
}

// apply runs op on an in-process session and returns its canonical reply.
func (op *sessionOp) apply(s *admission.Session) (string, error) {
	switch op.kind {
	case opDecide:
		d, err := s.Decide(op.spec, op.now)
		return canonDecision(d), err
	case opBatch:
		ds, err := s.DecideBatch(op.specs, op.now)
		return canonDecisions(ds), err
	case opComplete:
		c, err := s.Complete(op.taskID, op.now)
		return canonCompletion(c), err
	case opFail:
		ev, err := s.FailMachine(op.machine, op.now)
		return canonEvictions(ev), err
	default:
		return "up", s.RejoinMachine(op.machine)
	}
}

// canonReply decodes an HTTP reply body to op's canonical form.
func (op *sessionOp) canonReply(body []byte) (string, error) {
	switch op.kind {
	case opDecide:
		var d admission.Decision
		err := json.Unmarshal(body, &d)
		return canonDecision(d), err
	case opBatch:
		var r struct {
			Decisions []admission.Decision `json:"decisions"`
		}
		err := json.Unmarshal(body, &r)
		return canonDecisions(r.Decisions), err
	case opComplete:
		var c admission.Completion
		err := json.Unmarshal(body, &c)
		return canonCompletion(c), err
	case opFail:
		var r struct {
			Orphaned []admission.Eviction `json:"orphaned"`
		}
		err := json.Unmarshal(body, &r)
		return canonEvictions(r.Orphaned), err
	default:
		var r struct {
			State string `json:"state"`
		}
		err := json.Unmarshal(body, &r)
		return r.State, err
	}
}

func canonEvictions(ev []admission.Eviction) string {
	var b strings.Builder
	for _, e := range ev {
		fmt.Fprintf(&b, "%d@%d:%s,", e.TaskID, e.Machine, e.Reason)
	}
	return "[" + b.String() + "]"
}

func canonDecision(d admission.Decision) string {
	return fmt.Sprintf("%d %s %s m%d c%v t%v s%t n%v e%s", d.TaskID, d.Verdict, d.Reason, d.Machine,
		d.Chance, d.Threshold, d.Started, d.Now, canonEvictions(d.Evicted))
}

func canonDecisions(ds []admission.Decision) string {
	parts := make([]string, len(ds))
	for i, d := range ds {
		parts[i] = canonDecision(d)
	}
	return strings.Join(parts, "; ")
}

func canonCompletion(c admission.Completion) string {
	return fmt.Sprintf("%d %s o%t s%t n%v started%v e%s", c.TaskID, c.State, c.OnTime, c.Stale, c.Now, c.Started, canonEvictions(c.Evicted))
}

// completion is a scheduled task completion in session time.
type completion struct {
	at float64
	id int
}

type completionHeap []completion

func (h completionHeap) Len() int { return len(h) }
func (h completionHeap) Less(i, j int) bool {
	return h[i].at < h[j].at || (h[i].at == h[j].at && h[i].id < h[j].id)
}
func (h completionHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *completionHeap) Push(x any)   { *h = append(*h, x.(completion)) }
func (h *completionHeap) Pop() any {
	old := *h
	c := old[len(old)-1]
	*h = old[:len(old)-1]
	return c
}

// generateScript plays a client against an in-process session: Poisson
// arrivals at arrivalRate (in groups of batch when batch > 1), each started
// task completing after an execution time drawn from its PET, and, in
// single-arrival scripts, occasional machine failures. The replies it
// records are the expected HTTP replies. Op paths are relative to the
// session's URL.
func generateScript(seed uint64, label string, cfg admission.Config, nOps, batch int) ([]sessionOp, error) {
	s, err := admission.NewSession(cfg)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	rng := randx.New(deriveSeed(seed, label))
	m := cfg.Matrix
	var (
		ops       []sessionOp
		due       completionHeap
		placed    = map[int]int{} // accepted task -> machine
		types     = map[int]int{}
		now       float64
		decides   int
		downMach  = -1
		downUntil int
	)
	start := func(id int, at float64) {
		j := placed[id]
		dur := m.PET(types[id], cfg.MachineTypes[j]).Sample(rng)
		heap.Push(&due, completion{at + dur, id})
		delete(placed, id)
	}
	add := func(op sessionOp, want string) {
		op.want = want
		ops = append(ops, op)
	}
	body := func(v any) []byte {
		data, err := json.Marshal(v)
		if err != nil {
			panic(err) // plain structs of numbers always marshal
		}
		return data
	}
	for len(ops) < nOps {
		next := now + rng.Exponential(float64(batch)/arrivalRate)
		for due.Len() > 0 && due[0].at <= next && len(ops) < nOps {
			c := heap.Pop(&due).(completion)
			now = c.at
			res, err := s.Complete(c.id, now)
			if err != nil {
				return nil, err
			}
			for _, id := range res.Started {
				start(id, now)
			}
			for _, e := range res.Evicted {
				delete(placed, e.TaskID)
			}
			add(sessionOp{kind: opComplete, taskID: c.id, now: now, path: "/complete",
				body: body(map[string]any{"task_id": c.id, "now": now})}, canonCompletion(res))
		}
		if len(ops) >= nOps {
			break
		}
		now = next
		if downMach >= 0 && decides >= downUntil {
			if err := s.RejoinMachine(downMach); err != nil {
				return nil, err
			}
			add(sessionOp{kind: opRejoin, machine: downMach, path: fmt.Sprintf("/machines/%d/rejoin", downMach)}, "up")
			downMach = -1
		} else if batch == 1 && downMach < 0 && rng.Float64() < 1.0/failEvery {
			j := rng.IntN(len(cfg.MachineTypes))
			ev, err := s.FailMachine(j, now)
			if err != nil {
				return nil, err
			}
			for _, e := range ev {
				delete(placed, e.TaskID) // the running one still completes, stale
			}
			add(sessionOp{kind: opFail, machine: j, now: now, path: fmt.Sprintf("/machines/%d/fail", j),
				body: body(map[string]any{"now": now})}, canonEvictions(ev))
			downMach, downUntil = j, decides+downFor
		}
		specs := make([]admission.TaskSpec, batch)
		for i := range specs {
			tt := rng.IntN(m.NumTaskTypes())
			specs[i] = admission.TaskSpec{Type: tt, Deadline: now + m.TaskAvg(tt) + rng.Uniform(0.8, 2.5)*m.AvgAll()}
		}
		var ds []admission.Decision
		if batch == 1 {
			d, err := s.Decide(specs[0], now)
			if err != nil {
				return nil, err
			}
			ds = []admission.Decision{d}
			add(sessionOp{kind: opDecide, spec: specs[0], now: now, path: "/decide",
				body: body(map[string]any{"type": specs[0].Type, "deadline": specs[0].Deadline, "now": now})}, canonDecision(d))
		} else {
			var err error
			if ds, err = s.DecideBatch(specs, now); err != nil {
				return nil, err
			}
			add(sessionOp{kind: opBatch, specs: specs, now: now, path: "/decide/batch",
				body: body(map[string]any{"tasks": specs, "now": now})}, canonDecisions(ds))
		}
		decides += batch
		for i, d := range ds {
			for _, e := range d.Evicted {
				delete(placed, e.TaskID)
			}
			if d.Verdict == admission.VerdictAccept {
				placed[d.TaskID] = d.Machine
				types[d.TaskID] = specs[i].Type
				if d.Started {
					start(d.TaskID, now)
				}
			}
		}
	}
	return ops, nil
}

// replayNS replays ops on a fresh in-process session, checks that it
// answers as during generation, and returns the mean ns per Decide call.
func replayNS(cfg admission.Config, ops []sessionOp) (float64, error) {
	s, err := admission.NewSession(cfg)
	if err != nil {
		return 0, err
	}
	defer s.Close()
	var ns int64
	var n int
	for i := range ops {
		op := &ops[i]
		t0 := time.Now()
		got, err := op.apply(s)
		if op.kind == opDecide {
			ns += int64(time.Since(t0))
			n++
		}
		if err != nil {
			return 0, err
		}
		if got != op.want {
			return 0, fmt.Errorf("in-process replay of op %d differs from its generation: %q vs %q", i, got, op.want)
		}
	}
	return float64(ns) / float64(max(n, 1)), nil
}

// decideConn is one tenant's connection with its two sessions' scripts.
type decideConn struct {
	cl          *client
	open, batch string // session URL paths
	openOps     []sessionOp
	batchOps    []sessionOp
	cursor      int // next open-loop op
}

// decideRig is one set-up of the workload.
type decideRig struct {
	h     *harness
	conns []*decideConn
	cfg   admission.Config
}

func (r *decideRig) close() {
	for _, c := range r.conns {
		c.cl.close()
	}
	if err := r.h.close(); err != nil {
		fmt.Printf("closing server: %v\n", err)
	}
}

// openOps is the open-loop script length one tenant consumes: the warm-up,
// then optionally the two fixed-rate phases and the max-rate search.
func openOps(budget time.Duration, phases, search bool) int {
	n := warmupOps
	if phases {
		n += phaseOps(budget, rateLow) + phaseOps(budget, rateHigh)
	}
	if search {
		n += (searchUps + searchBisections) * searchStepOps
	}
	return n/parallelism + 1
}

// phaseOps is the op count of a fixed-rate phase: three tenths of the
// budget, at least minPhaseOps.
func phaseOps(budget time.Duration, rate float64) int {
	n := int(budget.Seconds() * 0.3 * rate)
	return max(n, minPhaseOps)
}

// newDecideRig starts a server, registers each tenant's open-loop session
// and generates both scripts of each tenant; nOpen is the open-loop
// script's length.
func newDecideRig(seed uint64, nOpen int, tr *Tracer) (*decideRig, error) {
	cfg, err := sessionConfig()
	if err != nil {
		return nil, err
	}
	reg, err := tenants(parallelism)
	if err != nil {
		return nil, err
	}
	h, err := startHarness(service.New(service.Config{Workers: 1, Tenants: reg}), tr)
	if err != nil {
		return nil, err
	}
	rig := &decideRig{h: h, cfg: cfg}
	for i := 0; i < parallelism; i++ {
		c := &decideConn{cl: newClient(h, i)}
		rig.conns = append(rig.conns, c)
		if c.open, err = c.createSession(); err != nil {
			rig.close()
			return nil, err
		}
		if c.openOps, err = generateScript(seed, fmt.Sprintf("open-%d", i), cfg, nOpen, 1); err == nil {
			c.batchOps, err = generateScript(seed, fmt.Sprintf("batch-%d", i), cfg, batchOps, batchSize)
		}
		if err != nil {
			rig.close()
			return nil, fmt.Errorf("generating script: %w", err)
		}
	}
	return rig, nil
}

// sent is the record of one open-loop request, in ns since phase start.
type sent struct {
	intended, sent, done int64
	decide, failed       bool
	req                  int64
}

// send issues op on c's connection and checks the reply.
func (c *decideConn) send(rep *report, session string, op *sessionOp) (req int64, ok bool) {
	status, body, req, err := c.cl.do(http.MethodPost, session+op.path, op.body)
	if err != nil || status != http.StatusOK {
		rep.fail("%s%s: status %d, %v: %.200s", session, op.path, status, err, body)
		return req, false
	}
	got, err := op.canonReply(body)
	if err != nil || got != op.want {
		rep.fail("%s%s: reply differs from the in-process replay: %q, want %q (%v)", session, op.path, got, op.want, err)
		return req, false
	}
	return req, true
}

// spinWindow is how close to a send time the generator stops sleeping and
// spins. It sleeps with nanosleep(2) rather than time.Sleep: Go timers wake
// up to a millisecond late on Linux, which would make the generator, not
// the server, late.
const spinWindow = 100 * time.Microsecond

// waitUntil returns when the phase clock reaches t.
func waitUntil(start time.Time, t time.Duration) {
	for {
		d := t - time.Since(start)
		switch {
		case d <= 0:
			return
		case d > spinWindow:
			ts := syscall.NsecToTimespec(int64(d - spinWindow))
			_ = syscall.Nanosleep(&ts, nil) // an interrupted sleep just loops
		default:
			runtime.Gosched()
		}
	}
}

// openLoop offers rate requests per second for n requests over all
// connections, each connection sending its own session's next ops in order
// at its share of the rate. Each request is timed from when it was due.
func openLoop(rep *report, conns []*decideConn, rate float64, n int) ([][]sent, error) {
	per := n / len(conns)
	interval := time.Duration(float64(time.Second) * float64(len(conns)) / rate)
	out := make([][]sent, len(conns))
	for _, c := range conns {
		if c.cursor+per > len(c.openOps) {
			return nil, fmt.Errorf("open-loop script exhausted (%d ops)", len(c.openOps))
		}
	}
	start := time.Now()
	var wg sync.WaitGroup
	for i, c := range conns {
		wg.Add(1)
		go func(i int, c *decideConn) {
			defer wg.Done()
			rec := make([]sent, per)
			offset := time.Duration(i) * interval / time.Duration(len(conns))
			for k := range rec {
				op := &c.openOps[c.cursor+k]
				intended := offset + time.Duration(k)*interval
				waitUntil(start, intended)
				s := sent{intended: int64(intended), sent: int64(time.Since(start)), decide: op.kind == opDecide}
				req, ok := c.send(rep, c.open, op)
				s.done, s.failed, s.req = int64(time.Since(start)), !ok, req
				rec[k] = s
			}
			rep.attempt(per)
			c.cursor += per
			out[i] = rec
		}(i, c)
	}
	wg.Wait()
	return out, nil
}

// phase summarizes an open-loop phase.
type phase struct {
	rate    float64
	decide  timing // from intended send time; failures are +Inf
	lag     []float64
	lastLag time.Duration
	failed  int
}

func summarize(rate float64, recs [][]sent) phase {
	p := phase{rate: rate}
	var lat []float64
	for _, rs := range recs {
		for _, s := range rs {
			p.lag = append(p.lag, float64(s.sent-s.intended)/1e9)
			if s.failed {
				p.failed++
			}
			if !s.decide {
				continue
			}
			if s.failed {
				lat = append(lat, math.Inf(1))
			} else {
				lat = append(lat, float64(s.done-s.intended)/1e9)
			}
		}
		if n := len(rs); n > 0 {
			p.lastLag = max(p.lastLag, time.Duration(rs[n-1].sent-rs[n-1].intended))
		}
	}
	p.decide = newTiming(fmt.Sprintf("decide latency at %.0f req/s", rate), lat)
	return p
}

// meets reports whether the phase kept p99 within the limit, kept up with
// its schedule and failed nothing.
func (p phase) meets() bool {
	p99, err := p.decide.at(99)
	return err == nil && p99 <= latencyLimit.Seconds() && p.lastLag <= latencyLimit && p.failed == 0
}

// runPhase runs one fixed-rate phase and reports it.
func runPhase(rep *report, conns []*decideConn, rate float64, n int) (phase, [][]sent, error) {
	recs, err := openLoop(rep, conns, rate, n)
	if err != nil {
		return phase{}, nil, err
	}
	p := summarize(rate, recs)
	note("%s (meets %v p99 limit: %t)", p.decide, latencyLimit, p.meets())
	return p, recs, nil
}

// createSession registers a session over c's connection and returns its
// URL path.
func (c *decideConn) createSession() (string, error) {
	body, err := json.Marshal(sessionRequest())
	if err != nil {
		return "", err
	}
	status, reply, _, err := c.cl.do(http.MethodPost, "/v1/sessions", body)
	if err != nil || status != http.StatusCreated {
		return "", fmt.Errorf("creating session: status %d, %v: %.200s", status, err, reply)
	}
	var created struct {
		SessionID string `json:"session_id"`
	}
	if err := json.Unmarshal(reply, &created); err != nil {
		return "", err
	}
	return "/v1/sessions/" + created.SessionID, nil
}

// batchStats is what a closed-loop batch phase measured.
type batchStats struct {
	rate       float64   // median decisions per second of the repetitions
	latencyMS  []float64 // each decide/batch request's; +Inf when it failed
	allocBytes uint64    // allocated by the process while requests ran
	decisions  int64     // answered decisions
	// onTime and decided are summed over the sessions of the last
	// repetition: tasks completed by their deadline, and tasks decided.
	onTime, decided uint64
}

// robustnessPct is the paper's metric over the last repetition's sessions:
// the share of decided tasks that completed by their deadline. Tasks still
// queued or running when a script ends count as missed.
func (b batchStats) robustnessPct() float64 {
	return 100 * float64(b.onTime) / float64(max(b.decided, 1))
}

// batchPhase replays every connection's batch script, in a closed loop on a
// fresh session each time, until d has passed. Creating and closing the
// sessions is not timed.
func batchPhase(rep *report, conns []*decideConn, d time.Duration) (batchStats, error) {
	var b batchStats
	start := time.Now()
	var rates []float64
	for len(rates) == 0 || time.Since(start) < d {
		for _, c := range conns {
			if c.batch != "" {
				if status, _, _, err := c.cl.do(http.MethodDelete, c.batch, nil); err != nil || status != http.StatusOK {
					return b, fmt.Errorf("closing session %s: status %d, %v", c.batch, status, err)
				}
			}
			var err error
			if c.batch, err = c.createSession(); err != nil {
				return b, err
			}
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		rate, lat, n := batchLoop(rep, conns)
		runtime.ReadMemStats(&m1)
		rates = append(rates, rate)
		b.latencyMS = append(b.latencyMS, lat...)
		b.allocBytes += m1.TotalAlloc - m0.TotalAlloc
		b.decisions += n
	}
	b.rate = median(rates)
	for _, c := range conns {
		counters, err := c.counters(c.batch)
		if err != nil {
			return b, err
		}
		b.onTime += counters.OnTime
		b.decided += counters.Decisions
	}
	return b, nil
}

// batchLoop sends each connection's whole batch script in a closed loop and
// returns decisions per second, every decide/batch request's latency in ms
// (+Inf when it failed) and the number of decisions answered.
func batchLoop(rep *report, conns []*decideConn) (float64, []float64, int64) {
	start := time.Now()
	counts := make([]int, len(conns))
	lats := make([][]float64, len(conns))
	var wg sync.WaitGroup
	for i, c := range conns {
		wg.Add(1)
		go func(i int, c *decideConn) {
			defer wg.Done()
			var lat []float64
			for k := range c.batchOps {
				op := &c.batchOps[k]
				t0 := time.Now()
				_, ok := c.send(rep, c.batch, op)
				if ok {
					counts[i] += op.decisions()
				}
				if op.kind == opBatch {
					ms := math.Inf(1)
					if ok {
						ms = time.Since(t0).Seconds() * 1e3
					}
					lat = append(lat, ms)
				}
			}
			lats[i] = lat
			rep.attempt(len(c.batchOps))
		}(i, c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var all []float64
	total := 0
	for i := range conns {
		total += counts[i]
		all = append(all, lats[i]...)
	}
	return float64(total) / elapsed.Seconds(), all, int64(total)
}

// maxRate searches for the highest offered rate that meets the latency
// limit, starting from the two fixed-rate phases.
func maxRate(rep *report, conns []*decideConn, low, high phase) (float64, error) {
	lo, hi := 0.0, 0.0 // highest passing, lowest failing
	if low.meets() {
		lo = low.rate
	}
	if high.meets() {
		lo = high.rate
	} else {
		hi = high.rate
	}
	step := func(rate float64) (bool, error) {
		p, _, err := runPhase(rep, conns, rate, searchStepOps)
		return p.meets(), err
	}
	for i := 0; hi == 0 && i < searchUps; i++ {
		r := lo * 1.25
		ok, err := step(r)
		if err != nil {
			return 0, err
		}
		if ok {
			lo = r
		} else {
			hi = r
		}
	}
	for i := 0; lo > 0 && hi > 0 && i < searchBisections; i++ {
		r := math.Sqrt(lo * hi)
		ok, err := step(r)
		if err != nil {
			return 0, err
		}
		if ok {
			lo = r
		} else {
			hi = r
		}
	}
	return lo, nil
}

// admissionCounts is a snapshot of a rig's admission counters: the
// server's, and the evictions summed over its open-loop sessions.
type admissionCounts struct {
	decideSeconds                    float64
	decideCalls, decisions, accepted int64
	stale, evictions                 int64
}

func (a admissionCounts) minus(b admissionCounts) admissionCounts {
	return admissionCounts{
		decideSeconds: a.decideSeconds - b.decideSeconds,
		decideCalls:   a.decideCalls - b.decideCalls,
		decisions:     a.decisions - b.decisions,
		accepted:      a.accepted - b.accepted,
		stale:         a.stale - b.stale,
		evictions:     a.evictions - b.evictions,
	}
}

func (r *decideRig) admissionCounts() (admissionCounts, error) {
	m := r.h.svc.Metrics()
	a := admissionCounts{
		decideSeconds: m.DecideLatency.Sum(),
		decideCalls:   m.DecideLatency.Count(),
		decisions:     m.Decisions.Load(),
		accepted:      m.DecisionsAccepted.Load(),
		stale:         m.StaleCompletions.Load(),
	}
	for _, c := range r.conns {
		counters, err := c.counters(c.open)
		if err != nil {
			return a, err
		}
		a.evictions += int64(counters.Evicted)
	}
	return a, nil
}

// counters reads the decision counters of the session at path.
func (c *decideConn) counters(path string) (admission.Counters, error) {
	status, body, _, err := c.cl.do(http.MethodGet, path, nil)
	var snap struct {
		Counters admission.Counters `json:"counters"`
	}
	if err == nil && status == http.StatusOK {
		err = json.Unmarshal(body, &snap)
	}
	if err != nil || status != http.StatusOK {
		return snap.Counters, fmt.Errorf("reading session %s: status %d, %v", path, status, err)
	}
	return snap.Counters, nil
}

func runDecide(rc *runCtx) error {
	nOpen := openOps(rc.budget, rc.traced(), rc.traced())
	rig, err := measureSetup(rc, func() (*decideRig, error) { return newDecideRig(rc.seed, nOpen, nil) }, (*decideRig).close)
	if err != nil {
		return err
	}
	defer rig.close()
	if _, _, err := runPhase(rc.rep, rig.conns, rateLow, warmupOps); err != nil {
		return err
	}
	if !rc.traced() {
		b, err := batchPhase(rc.rep, rig.conns, rc.budget)
		if err != nil {
			return err
		}
		calls := newTiming("decide/batch request latency (ms)", b.latencyMS)
		note("%s", calls)
		p50, err := calls.at(50)
		if err != nil {
			return err
		}
		// An op is one admission decision; a call is one decide/batch
		// request of 16 decisions.
		rc.rep.e2e("ops_per_s", "1/s", b.rate)
		rc.rep.e2e("call_p50_ms", "ms", p50)
		rc.rep.e2e("robustness_pct", "%", b.robustnessPct())
		rc.rep.e2e("alloc_bytes_per_op", "B", float64(b.allocBytes)/float64(max(b.decisions, 1)))
		return nil
	}

	// The open-loop latencies and the search they drive are per-layer
	// diagnostics: on a shared 2-core host, how fast idle CPUs wake up and
	// a few milliseconds of stolen CPU now and then set them, and they
	// move by a quarter to several-fold between identical runs.
	lowN, highN := phaseOps(rc.budget, rateLow), phaseOps(rc.budget, rateHigh)
	low, _, err := runPhase(rc.rep, rig.conns, rateLow, lowN)
	if err != nil {
		return err
	}
	high, _, err := runPhase(rc.rep, rig.conns, rateHigh, highN)
	if err != nil {
		return err
	}
	for _, x := range []struct {
		p    phase
		name string
	}{{low, "low"}, {high, "high"}} {
		p50, err := x.p.decide.at(50)
		if err != nil {
			return err
		}
		p99, err := x.p.decide.at(99)
		if err != nil {
			return err
		}
		rc.rep.layer("decide_p50_us."+x.name, "us", p50*1e6)
		rc.rep.layer("decide_p99_us."+x.name, "us", p99*1e6)
	}
	best, err := maxRate(rc.rep, rig.conns, low, high)
	if err != nil {
		return err
	}
	rc.rep.layer("decide_max_rps", "1/s", best)
	lag := newTiming("generator lag", append(append([]float64(nil), low.lag...), high.lag...))
	lagP99, err := lag.at(99)
	if err != nil {
		return err
	}
	rc.rep.layer("gen.lag_p99_ms", "ms", lagP99*1e3)
	untracedP50, _ := low.decide.at(50)

	tr := NewTracer()
	trig, err := newDecideRig(rc.seed, openOps(rc.budget, true, false), tr)
	if err != nil {
		return err
	}
	defer trig.close()
	if _, _, err := runPhase(rc.rep, trig.conns, rateLow, warmupOps); err != nil {
		return err
	}
	// Admission counts cover the fixed-rate phases alone, which send the
	// same requests on every run of a seed: the warm-up is subtracted.
	warm, err := trig.admissionCounts()
	if err != nil {
		return err
	}
	tlow, tlowRecs, err := runPhase(rc.rep, trig.conns, rateLow, lowN)
	if err != nil {
		return err
	}
	_, thighRecs, err := runPhase(rc.rep, trig.conns, rateHigh, highN)
	if err != nil {
		return err
	}
	fixed, err := trig.admissionCounts()
	if err != nil {
		return err
	}
	fixed = fixed.minus(warm)
	rc.rep.layer("admission.decide_us", "us", fixed.decideSeconds/float64(fixed.decideCalls)*1e6)
	rc.rep.layer("admission.accept_ratio", "ratio", float64(fixed.accepted)/float64(fixed.decisions))
	rc.rep.layer("admission.stale_completions", "count", float64(fixed.stale))
	rc.rep.layer("admission.evictions", "count", float64(fixed.evictions))

	var transport []float64
	for _, recs := range [][][]sent{tlowRecs, thighRecs} {
		for i, rs := range recs {
			for _, s := range rs {
				if !s.decide || s.failed {
					continue
				}
				if ns, ok := trig.h.timer.handlerNS(trig.conns[i].cl.key, s.req); ok {
					transport = append(transport, float64(s.done-s.sent-ns)/1e3)
				}
			}
		}
	}
	hd := tr.Agg("service.handler.decide")
	rc.rep.layer("service.handler_p50_us", "us", hd.hist.quantile(50)/1e3)
	rc.rep.layer("service.handler_p99_us", "us", hd.hist.quantile(99)/1e3)
	rc.rep.layer("service.transport_p50_us", "us", median(transport))
	tracedP50, _ := tlow.decide.at(50)
	rc.rep.layer("trace.overhead_pct", "%", (tracedP50/untracedP50-1)*100)

	if _, err := batchPhase(rc.rep, trig.conns, rc.budget*3/10); err != nil {
		return err
	}
	rc.rep.layer("tenant.rejected", "count", float64(trig.h.rejected()))

	var replay []float64
	for _, c := range trig.conns {
		ns, err := replayNS(trig.cfg, c.openOps[:c.cursor])
		if err != nil {
			return err
		}
		replay = append(replay, ns)
	}
	rc.rep.layer("admission.replay_decide_ns", "ns", median(replay))
	return writeTrace(rc, "decide_http", tr)
}
