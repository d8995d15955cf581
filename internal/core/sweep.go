package core

import (
	"prunesim/internal/machine"
	"prunesim/internal/task"
)

// Sweep is the machine-queue preamble of every mapping event (Figure 5
// steps 1-6), shared by the simulator and the admission service:
//
//  1. reactive drop of every pending task whose deadline has passed,
//  2. BeginEvent, the Toggle consult,
//  3. when dropping is engaged, proactive drop of every pending task whose
//     chance of success (Eq. 2) is at or below the fairness- and
//     value-adjusted threshold.
//
// Down machines are skipped: a failed machine's queue is empty. Each
// dropped task gets its terminal status and the pruner's accounting before
// the caller's onDrop sees it. The DropPending predicates are bound once at
// construction, so a sweep allocates no closures.
type Sweep struct {
	pruner    *Pruner
	onDrop    func(t *task.Task, machine int)
	now       float64
	missed    func(machine.Entry) bool
	lowChance func(machine.Entry) bool
}

// NewSweep binds a sweep to a pruner. onDrop is called once per dropped
// task with the index of the machine it was evicted from; the task's status
// tells a reactive drop from a proactive one.
func NewSweep(p *Pruner, onDrop func(t *task.Task, machine int)) *Sweep {
	w := &Sweep{pruner: p, onDrop: onDrop}
	w.missed = func(e machine.Entry) bool { return e.Task.Missed(w.now) }
	w.lowChance = func(e machine.Entry) bool {
		return p.ShouldDropValued(e.PCT.ProbLE(e.Task.Deadline), e.Task.Type, e.Task.Value)
	}
	return w
}

// Run sweeps the pending queues of machines at time now.
func (w *Sweep) Run(machines []*machine.Machine, now float64) {
	w.now = now
	w.drop(machines, w.missed, task.StatusDroppedReactive)
	w.pruner.BeginEvent()
	if w.pruner.DroppingEngaged() {
		w.drop(machines, w.lowChance, task.StatusDroppedProactive)
	}
}

func (w *Sweep) drop(machines []*machine.Machine, pred func(machine.Entry) bool, status task.Status) {
	for j, m := range machines {
		if m.Down() {
			continue
		}
		for _, t := range m.DropPending(w.now, pred) {
			t.Status = status
			if status == task.StatusDroppedReactive {
				w.pruner.RecordReactiveDrop(t.Type)
			} else {
				w.pruner.RecordProactiveDrop(t.Type)
			}
			w.onDrop(t, j)
		}
	}
}
