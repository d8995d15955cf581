package sim

import (
	"fmt"
	"math/rand"
	"testing"

	"prunesim/internal/core"
	"prunesim/internal/golden"
	"prunesim/internal/pet"
	"prunesim/internal/sched"
	"prunesim/internal/task"
)

// goldenCase is one materialized-workload Run pinned by
// testdata/golden_run.json: its Result, its Observer trace and the final
// state of every task struct (Run's callers read the mutated tasks).
type goldenCase struct {
	name   string
	matrix *pet.Matrix
	tasks  func() []*task.Task
	cfg    func() Config
}

func goldenCases() []goldenCase {
	valuedPrune := core.DefaultConfig(12)
	valuedPrune.ValueAware = true
	valuedPrune.ValueRef = 2
	withEvents := func(cfg Config) Config {
		cfg.Events = churnSchedule()
		return cfg
	}
	withTailEps := func(cfg Config) Config {
		cfg.TailEps = 0.01
		return cfg
	}
	cases := []goldenCase{
		{"batch-MM", hcMatrix, func() []*task.Task { return smallWorkload(2500, 1) },
			func() Config { return batchCfg(sched.NewMM(), core.DefaultConfig(12)) }},
		{"immediate-MCT", hcMatrix, func() []*task.Task { return smallWorkload(2500, 1) },
			func() Config { return immCfg(sched.NewMCT(), core.DefaultConfig(12)) }},
		{"batch-MM-churn", hcMatrix, func() []*task.Task { return smallWorkload(2500, 5) },
			func() Config { return withEvents(batchCfg(sched.NewMM(), core.DefaultConfig(12))) }},
		{"immediate-MCT-churn", hcMatrix, func() []*task.Task { return smallWorkload(2500, 5) },
			func() Config { return withEvents(immCfg(sched.NewMCT(), core.DefaultConfig(12))) }},
		{"batch-MM-valued", hcMatrix, func() []*task.Task { return valuedWorkload(1500, 2) },
			func() Config { return batchCfg(sched.NewMM(), valuedPrune) }},
		{"immediate-KPB-valued", hcMatrix, func() []*task.Task { return valuedWorkload(1500, 2) },
			func() Config { return immCfg(sched.NewKPB(sched.DefaultKPBPercent), valuedPrune) }},
		{"batch-MM-taileps", hcMatrix, func() []*task.Task { return smallWorkload(1200, 4) },
			func() Config { return withTailEps(batchCfg(sched.NewMM(), core.DefaultConfig(12))) }},
		{"immediate-MCT-taileps-churn", hcMatrix, func() []*task.Task { return smallWorkload(1200, 4) },
			func() Config { return withTailEps(withEvents(immCfg(sched.NewMCT(), core.DefaultConfig(12)))) }},
	}
	// A fixed draw of the property-test generator: every heuristic family,
	// both modes, random slot counts and pruning configurations.
	r := rand.New(rand.NewSource(12))
	for i := 0; i < 16; i++ {
		rr := randomRun{}.Generate(r, 0).Interface().(randomRun)
		matrix, machines, wl := hcMatrix, hcMachines, smallWorkload
		if rr.heuristic == "FCFS-RR" || rr.heuristic == "EDF" || rr.heuristic == "SJF" {
			matrix, machines, wl = homMatrix, homMachs, smallHomWorkload
		}
		mode := BatchMode
		if rr.immediate {
			mode = ImmediateMode
		}
		cases = append(cases, goldenCase{
			name:   fmt.Sprintf("random-%02d-%s", i, rr.heuristic),
			matrix: matrix,
			tasks:  func() []*task.Task { return wl(rr.numTasks, rr.trial) },
			cfg: func() Config {
				h, _, _ := sched.ByName(rr.heuristic)
				return Config{
					Mode: mode, Heuristic: h, MachineTypes: machines,
					Slots: rr.slots, Prune: rr.prune, Seed: uint64(rr.trial) + 1,
					ExcludeBoundary: 20,
				}
			},
		})
	}
	return cases
}

// TestGoldenRun pins Run's Result (every field, floats by bits), its trace
// event sequence and the final task states on materialized workloads in
// both modes, with platform events, value-aware pruning and PCT tail
// compression.
func TestGoldenRun(t *testing.T) {
	gf := golden.Open(t, "testdata/golden_run.json")
	for _, c := range goldenCases() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			var trace []TraceEvent
			cfg := c.cfg()
			cfg.Observer = func(e TraceEvent) { trace = append(trace, e) }
			tasks := c.tasks()
			res, err := Run(c.matrix, tasks, cfg)
			if err != nil {
				t.Fatal(err)
			}
			gf.Check(t, c.name+"/result", golden.Digest(res))
			gf.Check(t, c.name+"/trace", golden.Digest(trace))
			gf.Check(t, c.name+"/tasks", golden.Digest(tasks))
		})
	}
}
