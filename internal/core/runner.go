package core

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/sim"
)

// Runner executes independent simulations on a bounded worker pool. The
// δ-graph methodology makes every run independent by construction — each
// alone baseline and each δ point builds its own cluster.Platform with its
// own sim engine, so runs share no state — and Runner exploits that
// embarrassing parallelism.
//
// Parallelism bounds the number of concurrent simulations; zero or negative
// means runtime.GOMAXPROCS(0). Parallelism 1 degenerates to a serial loop
// in submission order.
//
// Determinism: results are written to slots fixed by submission order and
// derived quantities (interference factors) are computed after the pool
// drains, so a Runner produces byte-identical results to the serial path at
// any parallelism level — only wall-clock time changes. Nested use (a
// figure fanning out series whose δ-graphs fan out points) is safe: each
// level runs its own pool, which briefly oversubscribes the CPU but never
// deadlocks and never changes results.
type Runner struct {
	// Parallelism is the maximum number of concurrent simulations.
	// <= 0 selects runtime.GOMAXPROCS(0).
	Parallelism int
}

// workers resolves the effective pool size for n tasks.
func (r Runner) workers(n int) int {
	p := r.Parallelism
	if p <= 0 {
		p = runtime.GOMAXPROCS(0)
	}
	if p > n {
		p = n
	}
	if p < 1 {
		p = 1
	}
	return p
}

// ForEach runs fn(0) .. fn(n-1) on the pool and returns once all calls have
// finished. Execution order is unspecified beyond the pool bound; callers
// keep determinism by writing results into index-addressed slots. A serial
// pool (effective size 1) runs fn in index order.
func (r Runner) ForEach(n int, fn func(int)) {
	if n <= 0 {
		return
	}
	w := r.workers(n)
	if w == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next int64 // next task index to claim, accessed atomically
	var wg sync.WaitGroup
	wg.Add(w)
	for k := 0; k < w; k++ {
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// RunDelta executes every alone baseline (one per application) and every δ
// point of spec concurrently on the pool. The result is identical to
// core.RunDelta(spec); see the Runner type comment for why.
func (r Runner) RunDelta(spec DeltaSpec) *DeltaGraph {
	spec.validate()
	n := len(spec.Apps)
	g := &DeltaGraph{
		Alone:  make([]sim.Time, n),
		Points: make([]DeltaPoint, len(spec.Deltas)),
	}
	// Tasks 0..n-1 are the alone baselines; task n+i is δ point i. All
	// n+len(Deltas) simulations are independent: IF values, the only
	// cross-run quantity, are filled in afterwards.
	r.ForEach(n+len(spec.Deltas), func(t int) {
		if t < n {
			g.Alone[t] = runAlone(spec, t)
			return
		}
		g.Points[t-n] = runPoint(spec, spec.Deltas[t-n])
	})
	for i := range g.Points {
		g.Points[i].applyAlone(g.Alone)
	}
	return g
}

// RunDeltas runs many independent δ-graph specs on one pool, flattening
// every spec's baselines and points into a single task set so a figure with
// few series still fills all workers. Results preserve spec order.
func (r Runner) RunDeltas(specs []DeltaSpec) []*DeltaGraph {
	graphs := make([]*DeltaGraph, len(specs))
	// Flatten: per spec, one alone task per application plus one per δ.
	type task struct{ spec, slot int } // slot < len(Apps) = alone; rest = points
	var tasks []task
	for si, sp := range specs {
		sp.validate()
		graphs[si] = &DeltaGraph{
			Alone:  make([]sim.Time, len(sp.Apps)),
			Points: make([]DeltaPoint, len(sp.Deltas)),
		}
		for t := 0; t < len(sp.Apps)+len(sp.Deltas); t++ {
			tasks = append(tasks, task{si, t})
		}
	}
	r.ForEach(len(tasks), func(i int) {
		tk := tasks[i]
		sp := specs[tk.spec]
		g := graphs[tk.spec]
		if tk.slot < len(sp.Apps) {
			g.Alone[tk.slot] = runAlone(sp, tk.slot)
			return
		}
		g.Points[tk.slot-len(sp.Apps)] = runPoint(sp, sp.Deltas[tk.slot-len(sp.Apps)])
	})
	for _, g := range graphs {
		for i := range g.Points {
			g.Points[i].applyAlone(g.Alone)
		}
	}
	return graphs
}
