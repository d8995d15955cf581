package core

import (
	"reflect"
	"testing"

	"prunesim/internal/machine"
	"prunesim/internal/pmf"
	"prunesim/internal/task"
)

// sweepFixture: machine 0 runs a over [0, 4] with b (deadline 3), c
// (deadline 7) and d (deadline 100) queued behind it, every task taking
// exactly 4 units; machine 1 is down.
func sweepFixture() ([]*machine.Machine, []*task.Task) {
	pet := func(int) *pmf.PMF { return pmf.Delta(4, 1) }
	m0, m1 := machine.New(0, 0, pet, 1), machine.New(1, 0, pet, 1)
	ts := []*task.Task{task.New(0, 0, 0, 100), task.New(1, 0, 0, 3), task.New(2, 0, 0, 7), task.New(3, 0, 0, 100)}
	for _, t := range ts {
		m0.Enqueue(t, 0)
	}
	m0.StartNext(0)
	m1.Fail()
	return []*machine.Machine{m0, m1}, ts
}

type drop struct {
	id, machine int
	status      task.Status
}

// TestSweepFigure5Order: the reactive drop of b is a deadline miss that
// engages the reactive Toggle within the same event, so c — whose chance
// of finishing by 7 is 0 once it sits behind a — is then dropped
// proactively; d and the running a stay.
func TestSweepFigure5Order(t *testing.T) {
	machines, ts := sweepFixture()
	p := New(DefaultConfig(1))
	var got []drop
	w := NewSweep(p, func(t *task.Task, j int) { got = append(got, drop{t.ID, j, t.Status}) })
	w.Run(machines, 3.5)
	want := []drop{{1, 0, task.StatusDroppedReactive}, {2, 0, task.StatusDroppedProactive}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("drops = %+v, want %+v", got, want)
	}
	if ts[0].Status != task.StatusRunning || ts[3].Status != task.StatusMachineQueued {
		t.Fatalf("survivors: a %s, d %s", ts[0].Status, ts[3].Status)
	}
	if machines[0].PendingCount() != 1 {
		t.Fatalf("pending = %d, want 1", machines[0].PendingCount())
	}
	if r, pr := p.Accounting().ReactiveDrops()[0], p.Accounting().ProactiveDrops()[0]; r != 1 || pr != 1 {
		t.Fatalf("accounting: %d reactive, %d proactive drops; want 1 and 1", r, pr)
	}
}

// TestSweepDisabledDropsOnlyMissed: without pruning only the reactive
// baseline runs.
func TestSweepDisabledDropsOnlyMissed(t *testing.T) {
	machines, _ := sweepFixture()
	var got []drop
	w := NewSweep(New(Disabled(1)), func(t *task.Task, j int) { got = append(got, drop{t.ID, j, t.Status}) })
	w.Run(machines, 3.5)
	if want := []drop{{1, 0, task.StatusDroppedReactive}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("drops = %+v, want %+v", got, want)
	}
}
