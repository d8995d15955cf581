package sched

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"prunesim/internal/task"
)

// This file keeps the sort-based EDF, SJF and FCFS-RR mappers as a
// reference: each stable-sorts the whole unmapped queue and assigns its
// head while slots last. The production mappers select only the tasks that
// get a slot; they must produce exactly the same assignments (and, for
// FCFS-RR, the same cursor) on any context.

// refAssignSorted maps tasks in the stable order induced by less, each to
// the machine with the minimum expected completion time, until slots run
// out.
func refAssignSorted(ctx *Context, unmapped []*task.Task, less func(a, b *task.Task) bool) []Assignment {
	v := newVirtualState(ctx)
	defer v.release()
	queue := append([]*task.Task(nil), unmapped...)
	sort.SliceStable(queue, func(i, j int) bool { return less(queue[i], queue[j]) })
	var out []Assignment
	for _, t := range queue {
		if v.total <= 0 {
			break
		}
		j, _ := v.bestMachine(ctx, t)
		if j < 0 {
			break
		}
		out = append(out, Assignment{Task: t, Machine: j})
		v.assign(ctx, t, j)
	}
	return out
}

func refEDF(ctx *Context, unmapped []*task.Task) []Assignment {
	return refAssignSorted(ctx, unmapped, func(a, b *task.Task) bool { return a.Deadline < b.Deadline })
}

func refSJF(ctx *Context, unmapped []*task.Task) []Assignment {
	return refAssignSorted(ctx, unmapped, func(a, b *task.Task) bool {
		return ctx.MeanExec(a.Type, 0) < ctx.MeanExec(b.Type, 0)
	})
}

// refFCFSRR sorts the queue by task ID and deals it round-robin from a
// persistent cursor.
type refFCFSRR struct{ next int }

func (f *refFCFSRR) Map(ctx *Context, unmapped []*task.Task) []Assignment {
	v := newVirtualState(ctx)
	defer v.release()
	queue := append([]*task.Task(nil), unmapped...)
	sort.SliceStable(queue, func(i, j int) bool { return queue[i].ID < queue[j].ID })
	n := len(ctx.Machines)
	var out []Assignment
	for _, t := range queue {
		if v.total <= 0 {
			break
		}
		assigned := false
		for probe := 0; probe < n; probe++ {
			j := (f.next + probe) % n
			if v.free[j] > 0 {
				out = append(out, Assignment{Task: t, Machine: j})
				v.assign(ctx, t, j)
				f.next = (j + 1) % n
				assigned = true
				break
			}
		}
		if !assigned {
			break
		}
	}
	return out
}

// byteStream decodes fuzz input; once the bytes run out every draw is 0,
// so any input yields a valid context.
type byteStream []byte

// draw returns a value in [0, n).
func (b *byteStream) draw(n int) int {
	if len(*b) == 0 {
		return 0
	}
	v := int((*b)[0])
	*b = (*b)[1:]
	return v % n
}

// homogeneousCase decodes raw into a mapping context and an unmapped
// queue. Means, deadlines and types come from small sets so that keys tie
// often and stability matters; the queue is a permutation of its IDs, as
// after a machine failure requeued tasks; machines may be pre-loaded or
// down; slots is 0 (unbounded), 1 or 2.
func homogeneousCase(raw []byte) (*Context, []*task.Task) {
	b := byteStream(raw)
	nm := 1 + b.draw(6)
	nt := 1 + b.draw(4)
	slots := b.draw(3)
	means := make([][]float64, nt)
	for k := range means {
		means[k] = make([]float64, nm)
		for j := range means[k] {
			means[k][j] = float64(1 + b.draw(3))
		}
	}
	ctx := testFixture(means, slots)
	for j, m := range ctx.Machines {
		for i := b.draw(4); i > 0; i-- {
			m.Enqueue(task.New(1000+10*j+i, b.draw(nt), 0, 100), 0)
		}
		if b.draw(2) == 1 {
			m.StartNext(0)
		}
		if b.draw(5) == 0 {
			m.Fail()
		}
	}
	n := b.draw(41)
	queue := make([]*task.Task, n)
	for i := range queue {
		queue[i] = task.New(i, b.draw(nt), 0, float64(10+5*b.draw(4)))
	}
	for i := n - 1; i > 0; i-- {
		j := b.draw(i + 1)
		queue[i], queue[j] = queue[j], queue[i]
	}
	return ctx, queue
}

// advance applies asgs to the machines and lets each up machine finish its
// running task and start the next, so the following Map call sees new
// free slots. It returns the queue without the assigned tasks.
func advance(ctx *Context, queue []*task.Task, asgs []Assignment) []*task.Task {
	mapped := map[*task.Task]bool{}
	for _, a := range asgs {
		ctx.Machines[a.Machine].Enqueue(a.Task, ctx.Now)
		mapped[a.Task] = true
	}
	ctx.Now++
	for _, m := range ctx.Machines {
		if m.Down() {
			continue
		}
		if m.Running() != nil {
			m.Complete(ctx.Now)
		}
		m.StartNext(ctx.Now)
	}
	kept := queue[:0]
	for _, t := range queue {
		if !mapped[t] {
			kept = append(kept, t)
		}
	}
	return kept
}

// checkHomogeneousMatchesSort runs EDF, SJF and FCFS-RR against their
// sort-based references over three consecutive mapping events of the
// context raw decodes to.
func checkHomogeneousMatchesSort(t *testing.T, raw []byte) {
	t.Helper()
	fcfs, refFCFS := NewFCFSRR(), &refFCFSRR{}
	cases := []struct {
		name     string
		got, ref func(*Context, []*task.Task) []Assignment
	}{
		{"EDF", NewEDF().Map, refEDF},
		{"SJF", NewSJF().Map, refSJF},
		{"FCFS-RR", fcfs.Map, refFCFS.Map},
	}
	for _, c := range cases {
		ctx, queue := homogeneousCase(raw)
		for call := 0; call < 3; call++ {
			got := append([]Assignment(nil), c.got(ctx, queue)...)
			want := c.ref(ctx, queue)
			if !slices.Equal(got, want) {
				t.Fatalf("%s call %d: got %v, want %v", c.name, call, assignmentIDs(got), assignmentIDs(want))
			}
			if c.name == "FCFS-RR" && fcfs.next != refFCFS.next {
				t.Fatalf("FCFS-RR call %d: cursor %d, want %d", call, fcfs.next, refFCFS.next)
			}
			queue = advance(ctx, queue, got)
		}
	}
}

// assignmentIDs renders assignments as (task ID, machine) pairs.
func assignmentIDs(asgs []Assignment) [][2]int {
	out := make([][2]int, len(asgs))
	for i, a := range asgs {
		out[i] = [2]int{a.Task.ID, a.Machine}
	}
	return out
}

// TestHomogeneousMapMatchesSort: selecting only the tasks that get a slot
// yields exactly the prefix a stable sort of the whole queue would.
func TestHomogeneousMapMatchesSort(t *testing.T) {
	r := rand.New(rand.NewSource(15))
	for i := 0; i < 3000; i++ {
		raw := make([]byte, 48+r.Intn(160))
		r.Read(raw)
		checkHomogeneousMatchesSort(t, raw)
	}
}

// FuzzHomogeneousMapMatchesSort is TestHomogeneousMapMatchesSort over
// fuzzer-chosen contexts.
func FuzzHomogeneousMapMatchesSort(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{5, 3, 1, 0, 1, 2, 2, 1, 0, 3, 1, 0, 2, 1, 1, 0, 40, 0, 3, 1, 3, 2, 1, 0, 0, 2})
	f.Add([]byte{3, 1, 2, 1, 1, 1, 1, 2, 0, 0, 1, 1, 4, 3, 1, 4, 30, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 9, 7, 5, 3, 1})
	f.Fuzz(checkHomogeneousMatchesSort)
}
