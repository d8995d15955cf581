package sim

import (
	"fmt"

	"prunesim/internal/task"
)

// The task stream: run pulls tasks from a TaskSource one at a time and
// retires each the moment its outcome is final, so a trial's live memory is
// O(in-flight tasks + fixed per-machine state) instead of O(total tasks).
// Run feeds a materialized workload through the same loop via sliceSource.
//
// The counted-window tally accumulates the Result's floats (ValueTotal,
// ValueOnTime) in ascending task ID order, whatever order outcomes arrive
// in: that fixed float summation order is what the goldens pin. Outcomes
// that finish out of ID order wait in a small pending map, and IDs near the
// trailing exclusion boundary are held back until enough later arrivals
// prove them inside the window. The map holds at most the out-of-order
// window plus ExcludeBoundary stalled entries — never the whole workload.

// outcome is the fixed-size record of one finished task — everything the
// counted-window tally needs after the struct is recycled.
type outcome struct {
	status task.Status
	typ    int
	value  float64
}

// streamState is the task-stream state of one trial.
type streamState struct {
	src TaskSource
	rec TaskRecycler // src's recycler, nil if it has none

	nextArr *task.Task // one-task lookahead racing the event queue
	pulled  int        // tasks yielded by the source (ID contract cursor)
	arrived int        // arrival events processed; max arrived ID + 1
	lastArr float64    // last arrival time seen (order contract)

	pending  map[int]outcome // recorded outcomes not yet folded
	nextFold int             // next task ID to fold into the Result
}

// pullArrival advances the lookahead, enforcing the source contract: IDs
// sequential from 0 in yield order, arrival times non-decreasing.
func (s *simulator) pullArrival() error {
	st := &s.stream
	t, ok := st.src.Next()
	if !ok {
		st.nextArr = nil
		return nil
	}
	if t == nil {
		return fmt.Errorf("sim: task source yielded a nil task at position %d", st.pulled)
	}
	if t.ID != st.pulled {
		return fmt.Errorf("sim: task source yielded ID %d, want %d (IDs must be sequential in arrival order)", t.ID, st.pulled)
	}
	if st.pulled > 0 && t.Arrival < st.lastArr {
		return fmt.Errorf("sim: task source arrivals out of order: %v after %v", t.Arrival, st.lastArr)
	}
	st.pulled++
	st.lastArr = t.Arrival
	st.nextArr = t
	return nil
}

// retire processes a task the moment its outcome is final: it records the
// outcome, hands the struct back to the source if the source reuses tasks,
// and folds whatever the window now allows. The task must no longer be
// referenced by any queue.
func (s *simulator) retire(t *task.Task) {
	st := &s.stream
	st.pending[t.ID] = outcome{status: t.Status, typ: t.Type, value: t.Value}
	if st.rec != nil {
		st.rec.Recycle(t)
	}
	s.drainOutcomes()
}

// drainOutcomes folds recorded outcomes into the Result in strictly
// increasing ID order (the fixed summation order of the file comment). An
// ID folds only once its window membership is certain:
//
//   - maxArrived >= 2*lo+1 proves the final total exceeds 2*lo+1, so the
//     effective boundary is exactly the configured one (finalize's
//     small-workload clamp can no longer fire), and
//   - id <= maxArrived-lo proves id < total-lo whatever the final total is.
//
// Everything else waits for finalize's exact-total drain.
func (s *simulator) drainOutcomes() {
	st := &s.stream
	lo := s.cfg.ExcludeBoundary
	maxID := st.arrived - 1
	if maxID < 2*lo+1 {
		return
	}
	for st.nextFold <= maxID-lo {
		o, ok := st.pending[st.nextFold]
		if !ok {
			return
		}
		delete(st.pending, st.nextFold)
		if st.nextFold >= lo {
			s.tallyOutcome(o)
		}
		st.nextFold++
	}
}

// tallyOutcome adds one counted-window outcome to the Result.
func (s *simulator) tallyOutcome(o outcome) {
	s.res.Counted++
	value := o.value
	if value <= 0 {
		value = 1
	}
	s.res.ValueTotal += value
	switch o.status {
	case task.StatusCompletedOnTime:
		s.res.OnTime++
		s.res.ValueOnTime += value
		s.res.PerTypeOnTime[o.typ]++
	case task.StatusCompletedLate:
		s.res.Late++
	case task.StatusDroppedReactive:
		s.res.DroppedReactive++
		s.res.PerTypeDropped[o.typ]++
	case task.StatusDroppedProactive:
		s.res.DroppedProactive++
		s.res.PerTypeDropped[o.typ]++
	default:
		s.res.Unfinished++
	}
}

// finalize resolves tasks still queued when the event stream dries up (they
// can never run: no event will ever map or start them; no pruner accounting,
// no trace events) and drains the tally with the now-known task total.
func (s *simulator) finalize() error {
	for _, t := range s.batch {
		if t.Missed(s.now) {
			t.Status = task.StatusDroppedReactive
		}
		s.retire(t)
	}
	s.batch = s.batch[:0]
	for _, m := range s.machines {
		if t := m.Running(); t != nil {
			// Unreachable on a conforming event stream (a running task
			// always has a live completion event), kept for conservation.
			s.retire(t)
		}
		for _, e := range m.Pending() {
			t := e.Task
			if t.Missed(s.now) {
				t.Status = task.StatusDroppedReactive
			}
			s.retire(t)
		}
	}
	st := &s.stream
	total := st.arrived
	if total == 0 {
		return fmt.Errorf("%w", ErrNoTasks)
	}
	lo := s.cfg.ExcludeBoundary
	if s.cfg.AutoExcludeBoundary && total <= 2*lo+1 {
		// The incremental folds gate on maxArrived >= 2*lo+1, so when this
		// clamp fires nothing has been folded yet and the effective
		// boundary applies to every task.
		lo = total / 4
	} else if 2*lo >= total {
		return fmt.Errorf("sim: ExcludeBoundary %d out of range for %d tasks", lo, total)
	}
	hi := total - lo
	for id := st.nextFold; id < total; id++ {
		o, ok := st.pending[id]
		if !ok {
			panic(fmt.Sprintf("sim: no outcome recorded for task %d", id))
		}
		delete(st.pending, id)
		if id >= lo && id < hi {
			s.tallyOutcome(o)
		}
	}
	st.nextFold = total
	s.res.TotalTasks = total
	if s.res.Counted > 0 {
		s.res.Robustness = 100 * float64(s.res.OnTime) / float64(s.res.Counted)
	}
	if s.res.ValueTotal > 0 {
		s.res.WeightedRobustness = 100 * s.res.ValueOnTime / s.res.ValueTotal
	}
	return nil
}

// sliceSource feeds a materialized workload to the event loop in slice
// order. It does not implement TaskRecycler, so the task structs stay
// readable after Run returns.
type sliceSource struct {
	tasks []*task.Task
	next  int
}

func (s *sliceSource) Next() (*task.Task, bool) {
	if s.next >= len(s.tasks) {
		return nil, false
	}
	t := s.tasks[s.next]
	s.next++
	return t, true
}
