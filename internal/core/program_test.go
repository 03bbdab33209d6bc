package core

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/workload"
)

// jitterPrograms builds two co-running multi-phase programs with distinct
// jitter seeds: compute pauses with exponential jitter, a barrier, and an
// I/O burst, iterated twice. Every random draw in the resulting runs comes
// from one of the streams under test — the per-rank program generators
// (seeded only by Program.Seed) and the platform's forked FS.Rand issue
// jitter.
func jitterPrograms(cfg cluster.Config) []AppSpec {
	io := workload.Spec{BlockBytes: 1 << 20, TransferSize: 256 << 10}
	mk := func(seed uint64) *workload.Program {
		return &workload.Program{
			Phases: []workload.Phase{
				{Kind: workload.PhaseCompute, Compute: 2e6, JitterMean: 1e6},
				{Kind: workload.PhaseBarrier},
				{Kind: workload.PhaseIO, IO: io},
			},
			Iterations: 2,
			Seed:       seed,
		}
	}
	apps := TwoAppSpecs(cfg, 8, 4, io)
	apps[0].Program = mk(11)
	apps[1].Program = mk(47)
	return apps
}

// TestProgramJitterSeedOnly checks the random-stream contract of seeded
// programs: a program's jitter sequence is a function of its Seed alone. Swapping
// the co-runner's seed must not change the leading application's draw
// sequence — its compute-phase schedule shifts only through contention,
// which a solo run removes entirely. So two solo runs of the same seeded
// program, embedded in differently-seeded experiments, must match exactly.
func TestProgramJitterSeedOnly(t *testing.T) {
	cfg := cluster.Default().Scale(8)
	if cfg.IssueJitter <= 0 {
		t.Fatal("test needs issue jitter active to exercise FS.Rand")
	}
	run := func(seed uint64) sim.Time {
		apps := jitterPrograms(cfg)[:1]
		apps[0].Program.Seed = seed
		return Prepare(cfg, apps).Run().Apps[0].Elapsed
	}
	first := run(11)
	if got := run(11); got != first {
		t.Errorf("same seed, second run: elapsed %v != first %v", got, first)
	}
	if got := run(47); got == first {
		t.Errorf("different seeds produced identical elapsed %v — jitter stream not seed-driven", got)
	}
}
