// Package eventq provides the time-ordered priority queue that drives the
// discrete-event simulator. Events with equal timestamps pop in insertion
// order (FIFO tie-break), which keeps simulations deterministic: the
// ordering key is the pair (Time, insertion sequence) and nothing else, so
// two runs that push the same events in the same order pop them in the
// same order, bit for bit.
package eventq

// Kind discriminates simulator events.
type Kind uint8

// Task arrivals are not queued events: the simulator pulls them from its
// task source and races each against the queue head.
const (
	// KindCompletion is a machine finishing its running task.
	KindCompletion Kind = iota
	// KindPlatform is a scheduled platform change (machine fail/join/
	// degrade/restore). TaskID indexes the simulation's platform-event
	// schedule instead of a task.
	KindPlatform
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindCompletion:
		return "completion"
	case KindPlatform:
		return "platform"
	default:
		return "unknown"
	}
}

// Event is a scheduled simulator occurrence. TaskID and Machine carry the
// payload (for KindPlatform events TaskID is an index into the
// platform-event schedule and Machine is -1).
type Event struct {
	Time    float64
	Kind    Kind
	TaskID  int
	Machine int
	// Gen stamps KindCompletion events with the generation of the machine
	// that scheduled them. When a machine fails, the simulator bumps its
	// generation, so an already-queued completion of a task the failure
	// orphaned pops with a stale Gen and is discarded instead of completing
	// a task that never ran to the end.
	Gen uint64

	seq uint64 // insertion order for deterministic tie-breaking
}

// before reports whether e orders strictly before o: earlier time wins,
// insertion order breaks ties.
func (e Event) before(o Event) bool {
	if e.Time != o.Time {
		return e.Time < o.Time
	}
	return e.seq < o.seq
}

// Queue is a min-heap of events ordered by (Time, insertion order). The zero
// value is ready to use. The heap is hand-rolled over []Event rather than
// container/heap so Push/Pop never box events into interface values — the
// queue sits on the simulator's hot path and stays allocation-free in
// steady state.
type Queue struct {
	h   []Event
	seq uint64
}

// Push schedules an event.
func (q *Queue) Push(e Event) {
	e.seq = q.seq
	q.seq++
	q.h = append(q.h, e)
	q.up(len(q.h) - 1)
}

// Pop removes and returns the earliest event. It panics if the queue is
// empty; check Len first.
func (q *Queue) Pop() Event {
	if len(q.h) == 0 {
		panic("eventq: Pop on empty queue")
	}
	top := q.h[0]
	n := len(q.h) - 1
	q.h[0] = q.h[n]
	q.h[n] = Event{}
	q.h = q.h[:n]
	if n > 0 {
		q.down(0)
	}
	return top
}

// Peek returns the earliest event without removing it. It panics if empty.
func (q *Queue) Peek() Event {
	if len(q.h) == 0 {
		panic("eventq: Peek on empty queue")
	}
	return q.h[0]
}

// Len returns the number of scheduled events.
func (q *Queue) Len() int { return len(q.h) }

func (q *Queue) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !q.h[i].before(q.h[parent]) {
			return
		}
		q.h[i], q.h[parent] = q.h[parent], q.h[i]
		i = parent
	}
}

func (q *Queue) down(i int) {
	n := len(q.h)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		least := l
		if r := l + 1; r < n && q.h[r].before(q.h[l]) {
			least = r
		}
		if !q.h[least].before(q.h[i]) {
			return
		}
		q.h[i], q.h[least] = q.h[least], q.h[i]
		i = least
	}
}
