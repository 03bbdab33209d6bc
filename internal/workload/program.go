package workload

import "fmt"

// PhaseKind is the kind of one program phase.
type PhaseKind int

// Phase kinds.
const (
	// PhaseIO performs one I/O burst described by a Spec.
	PhaseIO PhaseKind = iota
	// PhaseCompute pauses the rank for Compute plus an (optional)
	// exponentially distributed jitter — think time between bursts.
	PhaseCompute
	// PhaseBarrier synchronizes all ranks of the application, like the
	// collective entry into a checkpoint.
	PhaseBarrier
)

func (k PhaseKind) String() string {
	switch k {
	case PhaseIO:
		return "io"
	case PhaseCompute:
		return "compute"
	case PhaseBarrier:
		return "barrier"
	}
	return "unknown"
}

// Phase is one step of a Program. Exactly the fields of its Kind apply.
type Phase struct {
	Kind PhaseKind

	// IO is the burst of a PhaseIO step. Each iteration re-writes (or
	// re-reads) the same extents — checkpoint semantics: the file region an
	// application owns is overwritten burst after burst, so the file's
	// footprint does not grow with Iterations.
	IO Spec

	// Compute is the fixed think time of a PhaseCompute step, in
	// nanoseconds of simulated time.
	Compute int64
	// JitterMean, when positive, adds an exponentially distributed extra
	// pause with this mean (nanoseconds) — a Poisson burst-arrival process.
	// Draws come from a deterministic per-application stream seeded by
	// Program.Seed: every rank of the application draws the identical
	// value (the pause is collective, keeping the burst coherent), distinct
	// applications with distinct seeds decorrelate, and reruns reproduce
	// the exact same schedule.
	JitterMean int64
}

// Program is a multi-phase workload: the phase list, executed in order,
// Iterations times — the temporal structure (periodic checkpoints, bursty
// think/write loops) that a single one-shot Spec cannot express. The zero
// Iterations value means 1.
type Program struct {
	// Phases run in list order within each iteration.
	Phases []Phase
	// Iterations repeats the whole phase list (0 means 1).
	Iterations int
	// Seed seeds the program's deterministic jitter stream. Programs with
	// equal seeds draw identical jitter; give co-running applications
	// distinct seeds to decorrelate their burst arrivals.
	Seed uint64
}

// Iters returns the effective iteration count (at least 1).
func (pr *Program) Iters() int {
	if pr.Iterations < 1 {
		return 1
	}
	return pr.Iterations
}

// Validate checks the program for consistency.
func (pr *Program) Validate() error {
	if len(pr.Phases) == 0 {
		return fmt.Errorf("workload: program needs at least one phase")
	}
	if pr.Iterations < 0 {
		return fmt.Errorf("workload: program iterations must be >= 0, got %d", pr.Iterations)
	}
	for i, ph := range pr.Phases {
		switch ph.Kind {
		case PhaseIO:
			if err := ph.IO.Validate(); err != nil {
				return fmt.Errorf("workload: program phase %d: %w", i, err)
			}
			if ph.Compute != 0 || ph.JitterMean != 0 {
				return fmt.Errorf("workload: program phase %d: io phase with compute/jitter fields", i)
			}
		case PhaseCompute:
			if ph.Compute < 0 || ph.JitterMean < 0 {
				return fmt.Errorf("workload: program phase %d: negative compute/jitter", i)
			}
			if ph.IO != (Spec{}) {
				return fmt.Errorf("workload: program phase %d: compute phase with io fields", i)
			}
		case PhaseBarrier:
			if ph.IO != (Spec{}) || ph.Compute != 0 || ph.JitterMean != 0 {
				return fmt.Errorf("workload: program phase %d: barrier phase carries no fields", i)
			}
		default:
			return fmt.Errorf("workload: program phase %d: unknown kind %d", i, ph.Kind)
		}
	}
	return nil
}

// BytesPerProc returns the bytes one process moves over the whole program.
func (pr *Program) BytesPerProc() int64 {
	var n int64
	for _, ph := range pr.Phases {
		if ph.Kind == PhaseIO {
			n += ph.IO.BlockBytes
		}
	}
	return n * int64(pr.Iters())
}

// TotalBytes returns the bytes the whole application moves (all processes,
// all iterations).
func (pr *Program) TotalBytes(nprocs int) int64 {
	return pr.BytesPerProc() * int64(nprocs)
}

// MaxQD returns the largest queue depth any I/O phase uses — the pipelining
// bound a trace replayer must honor.
func (pr *Program) MaxQD() int {
	qd := 0
	for _, ph := range pr.Phases {
		if ph.Kind == PhaseIO && ph.IO.QD > qd {
			qd = ph.IO.QD
		}
	}
	return qd
}

// Requests returns the number of I/O requests each process issues over the
// whole program.
func (pr *Program) Requests() int {
	n := 0
	for _, ph := range pr.Phases {
		if ph.Kind == PhaseIO {
			n += ph.IO.Requests()
		}
	}
	return n * pr.Iters()
}

// Barriers returns the number of barrier entries each process performs.
func (pr *Program) Barriers() int {
	n := 0
	for _, ph := range pr.Phases {
		if ph.Kind == PhaseBarrier {
			n++
		}
	}
	return n * pr.Iters()
}

// Single wraps a one-shot Spec into the equivalent one-phase program.
func Single(s Spec) Program {
	return Program{Phases: []Phase{{Kind: PhaseIO, IO: s}}}
}
