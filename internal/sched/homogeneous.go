package sched

import "prunesim/internal/task"

// FCFSRR is First-Come-First-Served Round-Robin for homogeneous systems:
// tasks are taken in arrival order and placed on machines in cyclic order,
// skipping machines with no free queue slot. The cursor persists across
// mapping events.
type FCFSRR struct {
	next int
}

// NewFCFSRR returns a fresh FCFS-RR heuristic.
func NewFCFSRR() *FCFSRR { return &FCFSRR{} }

// Name implements Batch.
func (*FCFSRR) Name() string { return "FCFS-RR" }

// Map implements Batch. Arrival order is task ID order; IDs are exact as
// float64 keys (a trial never reaches 2^53 tasks).
func (f *FCFSRR) Map(ctx *Context, unmapped []*task.Task) []Assignment {
	return assignByKey(ctx, unmapped,
		func(t *task.Task) float64 { return float64(t.ID) },
		func(ctx *Context, v *virtualState, _ *task.Task) int {
			// The next machine in cyclic order with a free slot.
			n := len(ctx.Machines)
			for probe := 0; probe < n; probe++ {
				if j := (f.next + probe) % n; v.free[j] > 0 {
					f.next = (j + 1) % n
					return j
				}
			}
			return -1
		})
}

// EDF is Earliest Deadline First: the arrival queue is taken in deadline
// order, and each head task goes to the machine with the minimum expected
// completion time. Functionally the homogeneous analogue of MSD.
type EDF struct{}

// NewEDF returns the EDF heuristic.
func NewEDF() *EDF { return &EDF{} }

// Name implements Batch.
func (*EDF) Name() string { return "EDF" }

// Map implements Batch.
func (*EDF) Map(ctx *Context, unmapped []*task.Task) []Assignment {
	return assignByKey(ctx, unmapped,
		func(t *task.Task) float64 { return t.Deadline }, minCompletion)
}

// SJF is Shortest Job First: the arrival queue is taken in expected
// execution time order, and each head task goes to the machine with the
// minimum expected completion time. Functionally the homogeneous analogue
// of MM.
type SJF struct{}

// NewSJF returns the SJF heuristic.
func NewSJF() *SJF { return &SJF{} }

// Name implements Batch.
func (*SJF) Name() string { return "SJF" }

// Map implements Batch.
func (*SJF) Map(ctx *Context, unmapped []*task.Task) []Assignment {
	// On a homogeneous system the expected execution time is
	// machine-independent; use machine 0's column.
	return assignByKey(ctx, unmapped,
		func(t *task.Task) float64 { return ctx.MeanExec(t.Type, 0) }, minCompletion)
}

// minCompletion chooses the machine with the minimum expected completion
// time (see bestMachine).
func minCompletion(ctx *Context, v *virtualState, t *task.Task) int {
	j, _ := v.bestMachine(ctx, t)
	return j
}

// assignByKey assigns tasks in ascending key order, ties in queue order —
// exactly the order a stable sort by key yields — each to the machine
// choose returns, until slots or tasks run out or choose returns -1.
//
// Only the tasks that can get a slot are ordered. The call assigns at most
// k = min(free slots, tasks), so one pass over the queue keeps the k
// smallest (key, position) pairs in order, by insertion: a task that does
// not beat the current k-th costs one comparison. Each key is computed
// once. A call costs O(n) for a queue already in key order (FCFS-RR's
// usual case) and O(n·k) at worst, and batch mode bounds k by machines ×
// slots.
func assignByKey(ctx *Context, unmapped []*task.Task, key func(*task.Task) float64,
	choose func(ctx *Context, v *virtualState, t *task.Task) int) []Assignment {

	v := newVirtualState(ctx)
	defer v.release()
	// k <= v.total, so slots remain for every selected task.
	k := min(v.total, len(unmapped))
	if k == 0 {
		return ctx.AssignBuf[:0]
	}
	keys := v.keys[:0]
	for _, t := range unmapped {
		keys = append(keys, key(t))
	}
	v.keys = keys
	sel := v.sel[:0]
	for i, ki := range keys {
		n := len(sel)
		if n == k {
			// Equal keys keep the earlier position, so only a smaller key
			// displaces the current k-th.
			if !(ki < keys[sel[n-1]]) {
				continue
			}
			n--
		} else {
			sel = append(sel, 0)
		}
		for n > 0 && ki < keys[sel[n-1]] {
			sel[n] = sel[n-1]
			n--
		}
		sel[n] = i
	}
	v.sel = sel
	out := ctx.AssignBuf[:0]
	for _, i := range sel {
		t := unmapped[i]
		j := choose(ctx, v, t)
		if j < 0 {
			break
		}
		out = append(out, Assignment{Task: t, Machine: j})
		v.assign(ctx, t, j)
	}
	ctx.AssignBuf = out
	return out
}
