package main

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/scenario"
)

// fleet is the fleet builtin at smoke scale (1024 tenants over 24 HDD
// servers), fed in as scenario JSON and run through scenario.RunFleet on a
// serial pool: one 1024-app co-run, the shape baselines and the sampled
// pairs. It is the wide case: many files, clients and programs with
// barriers and jitter, so per-tenant costs and set-up show here.
type fleet struct {
	spec []byte // the generated scenario JSON
	// coRun is the digest of the first co-run RunFleet produced; the probe
	// must reproduce it.
	coRun string
}

// newFleet takes the builtin, shrinks it to smoke scale and sets the
// population seed.
func newFleet(seed uint64) (bench, error) {
	s, err := scenario.Lookup("fleet")
	if err != nil {
		return nil, err
	}
	s = s.Smoke()
	if s.Population == nil {
		return nil, fmt.Errorf("fleet builtin has no population block")
	}
	p := *s.Population
	p.Seed = seed
	s.Population = &p
	b, err := specJSON(s)
	if err != nil {
		return nil, err
	}
	return &fleet{spec: b}, nil
}

func (f *fleet) inputs() map[string][]byte { return map[string][]byte{"scenario.json": f.spec} }

// build turns the JSON into the population spec, its expansion and the
// built co-run, timing the expansion and the build.
func (f *fleet) build(tr *tracer, o *outcome) (scenario.Spec, cluster.Config, core.DeltaSpec, error) {
	id := tr.start("scenario.Parse")
	s, err := scenario.Parse(f.spec)
	tr.end(id)
	if err != nil {
		return s, cluster.Config{}, core.DeltaSpec{}, err
	}
	var es scenario.Spec
	o.sample("population.expand_ms", timeCall(tr, "scenario.ExpandPopulation", func() {
		es, _, err = scenario.ExpandPopulation(s)
	}))
	if err != nil {
		return s, cluster.Config{}, core.DeltaSpec{}, err
	}
	var cfg cluster.Config
	var ds core.DeltaSpec
	o.sample("scenario.build_ms", timeCall(tr, "scenario.Spec.Build", func() { cfg, ds, err = es.Build(cluster.HDD) }))
	return s, cfg, ds, err
}

type fleetRep struct {
	f     *fleet
	spec  scenario.Spec
	times *outcome // set-up samples, merged at check
	res   *scenario.FleetResult
	err   error
}

func (f *fleet) setup(tr *tracer) (repetition, error) {
	times := newOutcome()
	s, _, _, err := f.build(tr, times)
	if err != nil {
		return nil, err
	}
	return &fleetRep{f: f, spec: s, times: times}, nil
}

func (r *fleetRep) run(tr *tracer) {
	id := tr.start("scenario.RunFleet")
	defer tr.end(id)
	defer func() {
		if p := recover(); p != nil {
			r.err = fmt.Errorf("scenario.RunFleet: %v", p)
		}
	}()
	r.res, r.err = scenario.RunFleet(r.spec, cluster.HDD, core.Runner{Parallelism: 1})
}

// check counts every simulation of the fleet as one operation: the co-run,
// each shape baseline and each sampled pair.
func (r *fleetRep) check(o *outcome) {
	for k, v := range r.times.samples {
		for _, x := range v {
			o.sample(k, x)
		}
	}
	if r.err != nil {
		o.op("", r.err)
		return
	}
	f := r.res.Core
	d := runDigest(f.CoRun)
	o.op(digest(d, f.IF), checkRun(f.CoRun))
	if r.f.coRun == "" {
		r.f.coRun = d
	}
	for u, a := range f.Alone {
		var err error
		if a <= 0 {
			err = fmt.Errorf("shape %d: alone baseline did not finish", u)
		}
		o.op(digest(a), err)
	}
	for _, p := range f.Pairs {
		var err error
		if p.Elapsed[0] <= 0 || p.Elapsed[1] <= 0 || p.IF[0] <= 0 || p.IF[1] <= 0 {
			err = fmt.Errorf("pair %d-%d did not finish", p.I, p.J)
		}
		o.op(digest(p), err)
	}
	o.add("core.sims", float64(1+f.Shapes+len(f.Pairs)))
	if ps := r.res.IFPercentiles(50, 95); len(ps) == 2 {
		o.add("model.fleet_p50_if", ps[0])
		o.add("model.fleet_p95_if", ps[1])
	}
}

func (r *fleetRep) close() {}

// probe runs the fleet's co-run once more through core.Prepare and
// Experiment.Run, which expose the platform, and reads the per-layer
// counters of that co-run from it. Its result must equal RunFleet's.
func (f *fleet) probe(o *outcome) {
	_, cfg, ds, err := f.build(nil, newOutcome())
	if err != nil {
		o.op("", err)
		return
	}
	x, err := prepare(cfg, ds.AppsAt(0))
	if err != nil {
		o.op("", err)
		return
	}
	pending := x.Platform.E.Pending()
	var res core.RunResult
	runMs := timeCall(nil, "", func() { res, err = runExp(x) })
	if err == nil {
		err = checkRun(res)
	}
	if err == nil && runDigest(res) != f.coRun {
		err = fmt.Errorf("direct co-run digest %s differs from RunFleet's %s", runDigest(res), f.coRun)
	}
	o.op(runDigest(res), err)
	o.add("sim.events", float64(res.Diag.Events))
	o.add("sim.pending_at_start", float64(pending))
	addPlatform(o, x, res)
	if res.Diag.Events > 0 {
		o.add("sim.ns_per_event", runMs*1e6/float64(res.Diag.Events))
		o.add("sim.events_per_s", float64(res.Diag.Events)/(runMs/1e3))
	}
}
