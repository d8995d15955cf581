package sched

import (
	"fmt"
	"testing"

	"prunesim/internal/task"
)

// benchSink keeps benchmarked Map results live.
var benchSink []Assignment

// benchContext builds a fixed mid-oversubscription mapping event: 8
// heterogeneous machines with 2 slots each, partly filled and partly busy,
// and n unmapped tasks whose 4 types and 6 deadlines repeat.
func benchContext(n int) (*Context, []*task.Task) {
	means := make([][]float64, 4)
	for k := range means {
		means[k] = make([]float64, 8)
		for j := range means[k] {
			means[k][j] = float64(2 + (k*5+j*3)%7)
		}
	}
	ctx := testFixture(means, 2)
	for j, m := range ctx.Machines {
		for i := 0; i < j%3; i++ {
			m.Enqueue(task.New(100000+10*j+i, (j+i)%4, 0, 1000), 0)
		}
		if j%2 == 0 {
			m.StartNext(0)
		}
	}
	tasks := make([]*task.Task, n)
	for i := range tasks {
		tasks[i] = task.New(i, (i*7)%4, 0, float64(20+5*((i*3)%6)))
	}
	return ctx, tasks
}

// BenchmarkSchedMap times one batch Map call per heuristic on the fixed
// context, with a typical unmapped queue (30 tasks) and a deep one (2000).
func BenchmarkSchedMap(b *testing.B) {
	for _, name := range []string{"MM", "MSD", "MMU", "EDF", "SJF", "FCFS-RR"} {
		for _, n := range []int{30, 2000} {
			b.Run(fmt.Sprintf("%s/tasks=%d", name, n), func(b *testing.B) {
				h, _, err := ByName(name)
				if err != nil {
					b.Fatal(err)
				}
				ctx, tasks := benchContext(n)
				bat := h.(Batch)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					benchSink = bat.Map(ctx, tasks)
				}
			})
		}
	}
}
