// Package sched implements the ten mapping heuristics the paper evaluates
// (Figure 3): the immediate-mode heuristics RR, MET, MCT and KPB, the
// batch-mode two-phase heuristics MM (MinCompletion-MinCompletion), MSD
// (MinCompletion-SoonestDeadline) and MMU (MinCompletion-MaxUrgency) for
// heterogeneous systems, and FCFS-RR, EDF and SJF for homogeneous systems.
//
// Heuristics are deliberately unaware of the pruning mechanism: the paper's
// central claim is that the pruner plugs into an existing resource
// allocation system without altering its mapping heuristic. The simulator
// composes the two.
package sched

import (
	"fmt"
	"math"
	"sync"

	"prunesim/internal/machine"
	"prunesim/internal/task"
)

// Context is the read-only view of the resource-allocation state a heuristic
// maps against during one mapping event.
type Context struct {
	// Now is the current simulation time.
	Now float64
	// Machines are the worker nodes (index == machine ID).
	Machines []*machine.Machine
	// MeanExec returns the expected execution time of a task type on a
	// machine (by machine ID), read from the PET matrix.
	MeanExec func(taskType, machineID int) float64
	// Slots caps the number of pending (not yet running) tasks per machine
	// queue in batch mode. Zero or negative means unbounded (immediate mode).
	Slots int

	// AssignBuf is the reusable backing array batch heuristics build their
	// returned assignments in; Map calls grow it as needed and store it back,
	// so a long simulation reaches a steady state where mapping events stop
	// allocating. It makes one Map result only valid until the next Map call
	// with the same Context (see Batch).
	AssignBuf []Assignment
}

// Usable reports whether machine j can accept work: a machine taken down by
// a platform failure event is invisible to every heuristic until it
// rejoins. With a static machine set (no platform events) this is always
// true.
func (c *Context) Usable(j int) bool { return !c.Machines[j].Down() }

// freeSlots returns how many more tasks machine j can accept. A down
// machine has none.
func (c *Context) freeSlots(j int) int {
	if c.Machines[j].Down() {
		return 0
	}
	if c.Slots <= 0 {
		return math.MaxInt32
	}
	return c.Slots - c.Machines[j].PendingCount()
}

// Assignment is one task-to-machine mapping decision, in the order the
// heuristic made it.
type Assignment struct {
	Task    *task.Task
	Machine int
}

// Batch is a batch-mode mapping heuristic: given the unmapped tasks of the
// arrival queue, produce assignments until machine queue slots are exhausted
// or no task remains. Implementations must not mutate tasks or machines;
// they reason over virtual state only.
//
// The returned slice is backed by the Context's reusable AssignBuf: it is
// valid only until the next Map call with the same Context, so callers must
// consume (or copy) it first.
type Batch interface {
	Name() string
	Map(ctx *Context, unmapped []*task.Task) []Assignment
}

// Immediate is an immediate-mode heuristic: pick a machine for one arriving
// task. Implementations may keep internal state (e.g. a round-robin cursor),
// so construct a fresh instance per simulation.
type Immediate interface {
	Name() string
	Pick(ctx *Context, t *task.Task) int
}

// virtualState tracks expected machine readiness while a batch heuristic
// builds its provisional mapping. Instances are pooled and carry reusable
// buffers, so a mapping event in steady state allocates nothing but its
// returned assignments: heuristics acquire one with newVirtualState and
// release it when the Map call finishes.
type virtualState struct {
	ready []float64
	free  []int
	total int

	// remaining is the reusable working copy of the unmapped tasks (see
	// tasks). keys and sel are assignByKey's per-task keys and ordered
	// selection of task indices. picks, chosenMach and chosenStamp are the per-round nominee
	// table and committed-task markers of mapPerMachineRounds; round is the
	// monotonically increasing stamp that makes stale markers harmless
	// across rounds, Map calls and pool reuses.
	remaining   []*task.Task
	keys        []float64
	sel         []int
	picks       []pick
	chosenMach  []int32
	chosenStamp []int64
	round       int64
}

// pick is one machine's best nominee within a mapping round.
type pick struct {
	taskIdx            int
	primary, secondary float64
}

// vsPool recycles virtualState buffers across mapping events and trials.
var vsPool = sync.Pool{New: func() any { return new(virtualState) }}

func newVirtualState(ctx *Context) *virtualState {
	v := vsPool.Get().(*virtualState)
	n := len(ctx.Machines)
	if cap(v.ready) < n {
		v.ready = make([]float64, n)
		v.free = make([]int, n)
	}
	v.ready = v.ready[:n]
	v.free = v.free[:n]
	v.total = 0
	for j, m := range ctx.Machines {
		if m.Down() {
			// No slots and an unreachable ready time: every batch heuristic
			// routes machine choice through free/ready, so this one branch
			// hides down machines from all of them.
			v.ready[j] = math.Inf(1)
			v.free[j] = 0
			continue
		}
		v.ready[j] = m.ExpectedReady(ctx.Now)
		f := ctx.freeSlots(j)
		if f < 0 {
			f = 0
		}
		v.free[j] = f
		v.total += f
	}
	return v
}

// release returns v to the pool. The caller must drop every reference into
// v's buffers first.
func (v *virtualState) release() {
	v.remaining = v.remaining[:0]
	vsPool.Put(v)
}

// tasks fills and returns v's reusable working copy of ts.
func (v *virtualState) tasks(ts []*task.Task) []*task.Task {
	if cap(v.remaining) < len(ts) {
		v.remaining = make([]*task.Task, 0, len(ts))
	}
	v.remaining = append(v.remaining[:0], ts...)
	return v.remaining
}

// roundBuffers sizes the mapPerMachineRounds working arrays.
func (v *virtualState) roundBuffers(nMachines, nTasks int) {
	if cap(v.picks) < nMachines {
		v.picks = make([]pick, nMachines)
	}
	v.picks = v.picks[:nMachines]
	if cap(v.chosenMach) < nTasks {
		v.chosenMach = make([]int32, nTasks)
		v.chosenStamp = make([]int64, nTasks)
	}
	v.chosenMach = v.chosenMach[:nTasks]
	v.chosenStamp = v.chosenStamp[:nTasks]
}

func (v *virtualState) assign(ctx *Context, t *task.Task, j int) {
	v.ready[j] += ctx.MeanExec(t.Type, j)
	v.free[j]--
	v.total--
}

// completion returns the expected completion time of task t if appended to
// machine j's virtual queue.
func (v *virtualState) completion(ctx *Context, t *task.Task, j int) float64 {
	return v.ready[j] + ctx.MeanExec(t.Type, j)
}

// bestMachine returns the machine with minimum expected completion time for
// t among machines with free virtual slots, or -1 if none.
func (v *virtualState) bestMachine(ctx *Context, t *task.Task) (j int, completion float64) {
	j, completion = -1, math.Inf(1)
	for m := range ctx.Machines {
		if v.free[m] <= 0 {
			continue
		}
		if c := v.completion(ctx, t, m); c < completion {
			j, completion = m, c
		}
	}
	return j, completion
}

// ByName constructs a heuristic by its paper name. Immediate-mode names
// return an Immediate; all others return a Batch. The second return reports
// whether the heuristic is immediate-mode.
func ByName(name string) (any, bool, error) {
	switch name {
	case "RR":
		return NewRR(), true, nil
	case "MET":
		return NewMET(), true, nil
	case "MCT":
		return NewMCT(), true, nil
	case "KPB":
		return NewKPB(DefaultKPBPercent), true, nil
	case "MM":
		return NewMM(), false, nil
	case "MSD":
		return NewMSD(), false, nil
	case "MMU":
		return NewMMU(), false, nil
	case "OLB":
		return NewOLB(), true, nil
	case "MaxMin":
		return NewMaxMin(), false, nil
	case "Sufferage":
		return NewSufferage(), false, nil
	case "FCFS-RR":
		return NewFCFSRR(), false, nil
	case "EDF":
		return NewEDF(), false, nil
	case "SJF":
		return NewSJF(), false, nil
	default:
		return nil, false, fmt.Errorf("sched: unknown heuristic %q", name)
	}
}

// Names lists all heuristic names accepted by ByName, grouped immediate
// first, then batch heterogeneous, then homogeneous. The first ten are the
// paper's heuristics; OLB, MaxMin and Sufferage are extra baselines from
// the same literature.
func Names() []string {
	return []string{
		"RR", "MET", "MCT", "KPB",
		"MM", "MSD", "MMU",
		"FCFS-RR", "EDF", "SJF",
		"OLB", "MaxMin", "Sufferage",
	}
}
