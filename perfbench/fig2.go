package main

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/paper"
	"repro/internal/pfs"
	"repro/internal/sim"
)

// fig2 is Figure 2 with sync ON at scale 8 over HDD, SSD and RAM: per
// backend the two alone runs and five δ points, 21 simulations run
// serially. It is the paper's headline experiment and the simulator's hot
// path; QoS is off and obs and trace are detached.
type fig2 struct {
	deltas []float64 // seconds, sorted, always holding 0
}

const fig2Scale = 8

var fig2Backends = []cluster.BackendKind{cluster.HDD, cluster.SSD, cluster.RAM}

// newFig2 draws the four non-zero δ in ±40 s, to the millisecond.
func newFig2(seed uint64) (bench, error) {
	r := rng(seed, 2)
	ds := []float64{0}
	for len(ds) < 5 {
		d := math.Round((r.Float64()*80-40)*1000) / 1000
		if !slices.Contains(ds, d) {
			ds = append(ds, d)
		}
	}
	slices.Sort(ds)
	return &fig2{deltas: ds}, nil
}

func (f *fig2) inputs() map[string][]byte {
	b, _ := json.MarshalIndent(map[string]any{
		"experiment": "paper.Fig2 sync on", "scale": fig2Scale,
		"backends": []string{"hdd", "ssd", "ram"}, "delta_s": f.deltas,
	}, "", "  ")
	return map[string][]byte{"deltas.json": b}
}

// fig2Sim is one simulation of the campaign.
type fig2Sim struct {
	backend cluster.BackendKind
	alone   int     // the app run alone, or -1 for a δ point
	delta   float64 // seconds, for a δ point
	x       *core.Experiment
	prepMs  float64
	pending int
	res     core.RunResult
	err     error
	runMs   float64
}

type fig2Rep struct{ sims []*fig2Sim }

func (f *fig2) setup(tr *tracer) (repetition, error) {
	rep := &fig2Rep{}
	for _, b := range fig2Backends {
		cfg := paper.Config(fig2Scale)
		cfg.Backend = b
		cfg.Sync = pfs.SyncOn
		apps := core.TwoAppSpecs(cfg, paper.ProcsPerApp(cfg), cfg.CoresPerNode, paper.ContigSpec())
		for _, a := range apps {
			if err := a.Validate(cfg); err != nil {
				return nil, fmt.Errorf("%s: %w", b, err)
			}
		}
		var sims []*fig2Sim
		var specs [][]core.AppSpec
		for i := range apps {
			a := apps[i]
			a.Start = 0
			sims = append(sims, &fig2Sim{backend: b, alone: i})
			specs = append(specs, []core.AppSpec{a})
		}
		ds := core.DeltaSpec{Cfg: cfg, Apps: apps}
		for _, d := range f.deltas {
			sims = append(sims, &fig2Sim{backend: b, alone: -1, delta: d})
			specs = append(specs, ds.AppsAt(sim.Time(math.Round(d*float64(sim.Second)))))
		}
		for i, s := range sims {
			var err error
			s.prepMs = timeCall(tr, "core.Prepare", func() { s.x, err = prepare(cfg, specs[i]) })
			if err != nil {
				return nil, err
			}
			s.pending = s.x.Platform.E.Pending()
			rep.sims = append(rep.sims, s)
		}
	}
	return rep, nil
}

func (r *fig2Rep) run(tr *tracer) {
	core.Runner{Parallelism: 1}.ForEach(len(r.sims), func(i int) {
		s := r.sims[i]
		s.runMs = timeCall(tr, "core.Experiment.Run", func() { s.res, s.err = runExp(s.x) })
	})
}

func (r *fig2Rep) check(o *outcome) {
	alone := map[cluster.BackendKind][]sim.Time{}
	var events, runMs float64
	for _, s := range r.sims {
		err := s.err
		if err == nil {
			err = checkRun(s.res)
		}
		o.op(runDigest(s.res), err)
		if s.alone >= 0 && err == nil {
			alone[s.backend] = append(alone[s.backend], s.res.Apps[0].Elapsed)
		}
		o.add("sim.events", float64(s.res.Diag.Events))
		o.add("sim.pending_at_start", float64(s.pending))
		o.add("core.sims", 1)
		addPlatform(o, s.x, s.res)
		o.sample("core.prepare_ms", s.prepMs)
		o.sample("core.run_ms_p50", s.runMs)
		o.sample("core.run_ms_max", s.runMs)
		events += float64(s.res.Diag.Events)
		runMs += s.runMs
		s.x = nil // the platform is no longer needed
	}
	if events > 0 {
		o.sample("sim.ns_per_event", runMs*1e6/events)
		o.sample("sim.events_per_s", events/(runMs/1e3))
	}
	// The interference factor at δ=0, averaged over the two applications.
	for _, s := range r.sims {
		base := alone[s.backend]
		if s.alone >= 0 || s.delta != 0 || s.err != nil || len(base) != 2 {
			continue
		}
		var sum float64
		for i, a := range s.res.Apps {
			sum += float64(a.Elapsed) / float64(base[i])
		}
		o.add("model.fig2_if0_"+s.backend.String(), sum/2)
	}
}

func (r *fig2Rep) close() {}
