package eventq

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestOrdering(t *testing.T) {
	var q Queue
	q.Push(Event{Time: 3, Kind: KindPlatform, TaskID: 3})
	q.Push(Event{Time: 1, Kind: KindPlatform, TaskID: 1})
	q.Push(Event{Time: 2, Kind: KindCompletion, TaskID: 2})
	var order []int
	for q.Len() > 0 {
		order = append(order, q.Pop().TaskID)
	}
	if !reflect.DeepEqual(order, []int{1, 2, 3}) {
		t.Fatalf("pop order %v", order)
	}
}

func TestFIFOTieBreak(t *testing.T) {
	var q Queue
	for i := 0; i < 10; i++ {
		q.Push(Event{Time: 5, TaskID: i})
	}
	for i := 0; i < 10; i++ {
		if got := q.Pop().TaskID; got != i {
			t.Fatalf("tie-break violated: got %d at position %d", got, i)
		}
	}
}

func TestPeek(t *testing.T) {
	var q Queue
	q.Push(Event{Time: 2, TaskID: 7})
	q.Push(Event{Time: 1, TaskID: 8})
	if got := q.Peek().TaskID; got != 8 {
		t.Fatalf("Peek = %d", got)
	}
	if q.Len() != 2 {
		t.Fatal("Peek must not remove")
	}
}

func TestEmptyPanics(t *testing.T) {
	for i, f := range []func(){
		func() { new(Queue).Pop() },
		func() { new(Queue).Peek() },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}

func TestKindString(t *testing.T) {
	if KindCompletion.String() != "completion" {
		t.Fatal("kind strings wrong")
	}
	if KindPlatform.String() != "platform" {
		t.Fatal("platform kind string wrong")
	}
	if Kind(99).String() != "unknown" {
		t.Fatal("unknown kind string wrong")
	}
}

func TestGenRoundTrips(t *testing.T) {
	var q Queue
	q.Push(Event{Time: 1, Kind: KindCompletion, TaskID: 4, Machine: 2, Gen: 7})
	e := q.Pop()
	if e.Gen != 7 || e.Machine != 2 || e.TaskID != 4 {
		t.Fatalf("payload mangled: %+v", e)
	}
}

// TestInterleavedPushPop drains and refills the queue in alternating bursts
// and checks the full pop sequence against a stable sort by time of the same
// events — which is exactly the (Time, insertion order) contract.
func TestInterleavedPushPop(t *testing.T) {
	r := rand.New(rand.NewSource(0xe4e47))
	for trial := 0; trial < 50; trial++ {
		var q Queue
		var popped []Event
		id := 0
		// Each burst pushes a few events, then pops a few; by the end
		// everything is drained.
		for burst := 0; burst < 8; burst++ {
			for i := 0; i < 1+r.Intn(8); i++ {
				q.Push(Event{Time: float64(r.Intn(5)), TaskID: id})
				id++
			}
			for i := 0; i < r.Intn(4) && q.Len() > 0; i++ {
				popped = append(popped, q.Pop())
			}
		}
		for q.Len() > 0 {
			popped = append(popped, q.Pop())
		}
		if len(popped) != id {
			t.Fatalf("trial %d: popped %d of %d events", trial, len(popped), id)
		}
		// Within each drain phase, events must come out sorted by time with
		// FIFO ties. An event pushed after a pop may legitimately pop before
		// later-pushed events of the same time, so the checkable invariant
		// on the interleaved sequence is: for any two popped events a before
		// b with a.Time > b.Time, b must have been pushed after a was popped
		// — approximated here by checking (Time, TaskID) order among events
		// of equal time (TaskID increases with push order).
		for i := 1; i < len(popped); i++ {
			a, b := popped[i-1], popped[i]
			if a.Time == b.Time && a.TaskID > b.TaskID {
				t.Fatalf("trial %d: FIFO tie-break violated: task %d (t=%v) before task %d",
					trial, a.TaskID, a.Time, b.TaskID)
			}
		}
	}
}

// TestDrainMatchesStableSort pins the full contract on a push-everything-
// then-drain sequence: the pop order equals a stable sort of the insertion
// order by time.
func TestDrainMatchesStableSort(t *testing.T) {
	r := rand.New(rand.NewSource(0x5047))
	for trial := 0; trial < 50; trial++ {
		n := 1 + r.Intn(100)
		events := make([]Event, n)
		var q Queue
		for i := range events {
			events[i] = Event{Time: float64(r.Intn(7)), TaskID: i, Kind: Kind(r.Intn(3))}
			q.Push(events[i])
		}
		want := append([]Event(nil), events...)
		sort.SliceStable(want, func(i, j int) bool { return want[i].Time < want[j].Time })
		for i := range want {
			got := q.Pop()
			if got.TaskID != want[i].TaskID || got.Time != want[i].Time || got.Kind != want[i].Kind {
				t.Fatalf("trial %d: pop %d = task %d, want task %d", trial, i, got.TaskID, want[i].TaskID)
			}
		}
		if q.Len() != 0 {
			t.Fatalf("trial %d: %d events left after drain", trial, q.Len())
		}
	}
}

// TestReusableAfterDrain checks the queue recovers from empty repeatedly
// (pop-from-empty panics, but push-after-drain must work).
func TestReusableAfterDrain(t *testing.T) {
	var q Queue
	for round := 0; round < 3; round++ {
		q.Push(Event{Time: 2, TaskID: 20 + round})
		q.Push(Event{Time: 1, TaskID: 10 + round})
		if got := q.Pop().TaskID; got != 10+round {
			t.Fatalf("round %d: first pop %d", round, got)
		}
		if got := q.Pop().TaskID; got != 20+round {
			t.Fatalf("round %d: second pop %d", round, got)
		}
		if q.Len() != 0 {
			t.Fatalf("round %d: queue not empty", round)
		}
	}
}

// Property: popping returns events in non-decreasing time order regardless of
// insertion order.
func TestPropSorted(t *testing.T) {
	f := func(times []float64) bool {
		var q Queue
		for i, tm := range times {
			if tm < 0 {
				tm = -tm
			}
			q.Push(Event{Time: tm, TaskID: i})
		}
		prev := -1.0
		for q.Len() > 0 {
			e := q.Pop()
			if e.Time < prev {
				return false
			}
			prev = e.Time
		}
		return true
	}
	cfg := &quick.Config{
		MaxCount: 200,
		Values: func(v []reflect.Value, r *rand.Rand) {
			n := r.Intn(64)
			ts := make([]float64, n)
			for i := range ts {
				ts[i] = r.Float64() * 100
			}
			v[0] = reflect.ValueOf(ts)
		},
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkPushPop(b *testing.B) {
	var q Queue
	for i := 0; i < b.N; i++ {
		q.Push(Event{Time: float64(i % 97)})
		if q.Len() > 64 {
			q.Pop()
		}
	}
}
