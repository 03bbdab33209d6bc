package core

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/pfs"
	"repro/internal/qos"
	"repro/internal/sim"
)

func TestStandardSchemes(t *testing.T) {
	schemes := StandardSchemes()
	want := []string{"off", "fairshare", "tokenbucket", "controller"}
	if len(schemes) != len(want) {
		t.Fatalf("got %d schemes", len(schemes))
	}
	for i, s := range schemes {
		if s.Name != want[i] {
			t.Fatalf("scheme %d = %q, want %q", i, s.Name, want[i])
		}
		if err := s.QoS.Validate(); err != nil {
			t.Fatalf("scheme %q invalid: %v", s.Name, err)
		}
	}
	if schemes[0].QoS.Kind != qos.Off {
		t.Fatal("baseline arm must be first by convention")
	}
}

// sweepSpecForTest is a small contended spec on the HDD backend (QoS
// levers are device-facing; a RAM backend would make every arm identical).
func sweepSpecForTest() DeltaSpec {
	cfg := tinyConfig(cluster.HDD, pfs.SyncOn)
	wl := tinyWorkload()
	wl.BlockBytes = 8 << 20
	apps := TwoAppSpecs(cfg, 8, 4, wl)
	return DeltaSpec{Cfg: cfg, Apps: apps, Deltas: Deltas(0.05)}
}

// TestRunMitigationSweepDeterminism: the sweep must be byte-identical at
// any pool parallelism — serial reference against GOMAXPROCS, with the
// intermediate sizes sampled too. Runs under -race in CI (satellite of
// issue 4).
func TestRunMitigationSweepDeterminism(t *testing.T) {
	spec := sweepSpecForTest()
	schemes := StandardSchemes()
	want := Runner{Parallelism: 1}.RunMitigationSweep(spec, schemes)
	for _, par := range []int{0, 2, 8} {
		got := Runner{Parallelism: par}.RunMitigationSweep(spec, schemes)
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("Parallelism=%d diverged from the serial sweep", par)
		}
	}
	if len(want.Graphs) != len(schemes) {
		t.Fatalf("%d graphs for %d schemes", len(want.Graphs), len(schemes))
	}
}

// TestSweepParetoBaseline: the Pareto rows measure against arm 0 — its own
// deltas are exactly zero — and every arm reports positive throughput.
func TestSweepParetoBaseline(t *testing.T) {
	sweep := Runner{}.RunMitigationSweep(sweepSpecForTest(), StandardSchemes())
	rows := sweep.Pareto()
	if rows[0].Name != "off" || rows[0].IFReductionPct != 0 || rows[0].TPCostPct != 0 {
		t.Fatalf("baseline row not neutral: %+v", rows[0])
	}
	base := rows[0]
	for _, r := range rows {
		if r.AggBps <= 0 || r.PeakIF <= 0 {
			t.Fatalf("degenerate row %+v", r)
		}
		// The two summary columns must be consistent with the raw ones.
		wantIF := (base.PeakIF - r.PeakIF) / base.PeakIF * 100
		if math.Abs(wantIF-r.IFReductionPct) > 1e-9 {
			t.Fatalf("row %q: dIF %v inconsistent with peaks", r.Name, r.IFReductionPct)
		}
	}
}

func TestRunMitigationSweepPanics(t *testing.T) {
	expectPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		f()
	}
	spec := sweepSpecForTest()
	expectPanic("no schemes", func() {
		Runner{}.RunMitigationSweep(spec, nil)
	})
	expectPanic("invalid scheme", func() {
		Runner{}.RunMitigationSweep(spec, []Scheme{{Name: "bad", QoS: qos.Params{QuantumBytes: -1}}})
	})
}

// TestUnfairnessHeterogeneousStaggered pins the Unfairness arithmetic on a
// hand-built heterogeneous N=3 graph with staggered starts: roles (leader
// versus trailer) must come from each point's actual burst start vector,
// pairs with simultaneous starts must be skipped, and non-overlapping
// points must not contribute (satellite of issue 4).
func TestUnfairnessHeterogeneousStaggered(t *testing.T) {
	g := &DeltaGraph{
		// Heterogeneous alone vector (an elephant and two mice) — only the
		// IF ratios below enter Unfairness, normalization already happened.
		Alone: []sim.Time{10 * sim.Second, sim.Second, sim.Second},
		Points: []DeltaPoint{
			// Overlapping point: starts [0.5s, 0s, 1s] mean app 1 leads,
			// then app 0, then app 2.
			{
				Delta: 0,
				Start: []sim.Time{500 * sim.Millisecond, 0, sim.Second},
				IF:    []float64{2, 1.5, 3},
			},
			// Two apps start together: the (0,1) pair has no first mover
			// and must be skipped; (0,2) and (1,2) still count.
			{
				Delta: sim.Second,
				Start: []sim.Time{0, 0, 2 * sim.Second},
				IF:    []float64{2, 4, 2},
			},
			// No overlap (all IF below the 1.02 threshold): ignored
			// entirely, even though its ratios would be extreme.
			{
				Delta: 30 * sim.Second,
				Start: []sim.Time{0, sim.Second, 2 * sim.Second},
				IF:    []float64{1, 1.01, 1},
			},
		},
	}
	// Point 0 pairs (first, second): (1,0): 2/1.5, (0,2): 3/2, (1,2): 3/1.5.
	// Point 1 pairs: (0,2): 2/2, (1,2): 2/4. Point 2 contributes nothing.
	want := (2/1.5 + 3.0/2 + 3/1.5 + 1 + 0.5) / 5
	if got := g.Unfairness(); math.Abs(got-want) > 1e-12 {
		t.Fatalf("Unfairness = %v, want %v", got, want)
	}
}

// TestUnfairnessStaggeredRealRun: on a real heterogeneous staggered N=3
// co-run the leader should beat the trailers — Unfairness strictly above
// parity — and the roles must follow the recorded start vector.
func TestUnfairnessStaggeredRealRun(t *testing.T) {
	cfg := tinyConfig(cluster.RAM, pfs.SyncOn)
	cfg.ComputeNodes = 6
	wl := tinyWorkload()
	wl.BlockBytes = 16 << 20
	apps := AppSpecs(cfg, 3, 8, 4, wl)
	apps[1].Program.Phases[0].IO.BlockBytes = 4 << 20 // heterogeneous: a smaller app
	g := RunDelta(DeltaSpec{
		Cfg:          cfg,
		Apps:         apps,
		StartOffsets: []sim.Time{0, 20 * sim.Millisecond, 40 * sim.Millisecond},
		Deltas:       []sim.Time{0},
	})
	p := g.Points[0]
	if !(p.Start[0] < p.Start[1] && p.Start[1] < p.Start[2]) {
		t.Fatalf("staggered starts not recorded: %v", p.Start)
	}
	if u := g.Unfairness(); u <= 1 {
		t.Fatalf("Unfairness = %v, want > 1 for a staggered overlapping pile-up", u)
	}
}
