package main

import (
	"bytes"
	"fmt"
	"math"
	"reflect"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/trace"
)

// observed runs the full-size aggressor-victim and periodic-checkpoint-4
// δ=0 co-runs on HDD four ways each: plain, observed, recorded, and
// written, read back and replayed. It is the only workload with the
// per-request hooks (span and I/O sinks) and the sampler switched on.
type observed struct {
	names []string
	specs [][]byte // generated scenario JSON, one per scenario
}

var observedScenarios = []string{"aggressor-victim", "periodic-checkpoint-4"}

// newObserved draws the trailing application's start offset (0 to 250 ms)
// and, for programs, every application's jitter seed.
func newObserved(seed uint64) (bench, error) {
	r := rng(seed, 4)
	b := &observed{}
	for _, name := range observedScenarios {
		s, err := scenario.Lookup(name)
		if err != nil {
			return nil, err
		}
		s.Backend = "hdd"
		s.DeltaS = []float64{0}
		apps := append([]scenario.App(nil), s.Apps...)
		apps[len(apps)-1].StartS = math.Round(r.Float64()*250) / 1000
		for i := range apps {
			if len(apps[i].Phases) > 0 {
				apps[i].Seed = 1 + r.Uint64N(1<<32)
			}
		}
		s.Apps = apps
		js, err := specJSON(s)
		if err != nil {
			return nil, err
		}
		b.names = append(b.names, name)
		b.specs = append(b.specs, js)
	}
	return b, nil
}

func (b *observed) inputs() map[string][]byte {
	m := map[string][]byte{}
	for i, n := range b.names {
		m[n+".json"] = b.specs[i]
	}
	return m
}

// observedCase is one scenario of a repetition.
type observedCase struct {
	names    []string
	cfg      cluster.Config
	apps     []core.AppSpec
	plain    *core.Experiment
	observed *core.Experiment
	col      *obs.Collector
	pending  int

	plainRes, obsRes, recRes core.RunResult
	plainErr, obsErr         error
	tl                       *obs.Timeline
	rec, back                *trace.Trace
	encoded                  []byte
	codecErr, recErr         error
	replay                   *trace.ReplayResult
	replayErr                error

	buildMs                                             float64
	prepMs                                              []float64
	plainMs, obsMs, exportMs, recMs, encMs, decMs, rpMs float64
}

type observedRep struct{ cases []*observedCase }

func (b *observed) setup(tr *tracer) (repetition, error) {
	rep := &observedRep{}
	for _, js := range b.specs {
		id := tr.start("scenario.Parse")
		s, err := scenario.Parse(js)
		tr.end(id)
		if err != nil {
			return nil, err
		}
		c := &observedCase{names: scenario.AppNames(s)}
		var ds core.DeltaSpec
		c.buildMs = timeCall(tr, "scenario.Spec.Build", func() { c.cfg, ds, err = s.Build(cluster.HDD) })
		if err != nil {
			return nil, err
		}
		c.apps = ds.AppsAt(0)
		for _, x := range []**core.Experiment{&c.plain, &c.observed} {
			c.prepMs = append(c.prepMs, timeCall(tr, "core.Prepare", func() { *x, err = prepare(c.cfg, c.apps) }))
			if err != nil {
				return nil, err
			}
		}
		id = tr.start("core.Experiment.Observe")
		c.col = c.observed.Observe(obs.DefaultConfig())
		tr.end(id)
		c.pending = c.plain.Platform.E.Pending() + c.observed.Platform.E.Pending()
		rep.cases = append(rep.cases, c)
	}
	return rep, nil
}

func (r *observedRep) run(tr *tracer) {
	for _, c := range r.cases {
		c.plainMs = timeCall(tr, "core.Experiment.Run", func() { c.plainRes, c.plainErr = runExp(c.plain) })
		c.obsMs = timeCall(tr, "core.Experiment.Run+Observe", func() { c.obsRes, c.obsErr = runExp(c.observed) })
		if c.obsErr == nil {
			c.exportMs = timeCall(tr, "obs.Collector.Timeline", func() { c.tl = c.col.Timeline(c.names) })
		}
		c.recMs = timeCall(tr, "trace.RecordRun", func() { c.rec, c.recRes, c.recErr = recordRun(c.cfg, c.apps) })
		if c.recErr != nil {
			continue
		}
		var buf bytes.Buffer
		c.encMs = timeCall(tr, "trace.Trace.Write", func() { c.codecErr = c.rec.Write(&buf) })
		c.encoded = buf.Bytes()
		if c.codecErr != nil {
			continue
		}
		c.decMs = timeCall(tr, "trace.Read", func() { c.back, c.codecErr = trace.Read(bytes.NewReader(c.encoded)) })
		if c.codecErr != nil {
			continue
		}
		c.rpMs = timeCall(tr, "trace.ReplayOn", func() { c.replay, c.replayErr = trace.ReplayOn(c.back, c.back.Header.Cfg) })
	}
}

// recordRun is trace.RecordRun with its panic on an invalid spec turned
// into an error.
func recordRun(cfg cluster.Config, apps []core.AppSpec) (t *trace.Trace, res core.RunResult, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("trace.RecordRun: %v", p)
		}
	}()
	t, res = trace.RecordRun(cfg, apps)
	return t, res, nil
}

func (r *observedRep) check(o *outcome) {
	var plainMs, obsMs, recMs float64
	for _, c := range r.cases {
		for _, ms := range c.prepMs {
			o.sample("core.prepare_ms", ms)
		}
		o.sample("scenario.build_ms", c.buildMs)
		plainErr := c.plainErr
		if plainErr == nil {
			plainErr = checkRun(c.plainRes)
		}
		o.op(runDigest(c.plainRes), plainErr)
		o.op(digest(c.obsRes.Apps, c.tl), c.checkObserved())
		o.op(runDigest(c.recRes), c.checkRecorded())
		var replayed []core.AppResult
		if c.replay != nil {
			replayed = c.replay.Apps
		}
		o.op(digest(c.encoded, replayed), c.checkReplay())

		o.add("core.sims", 4)
		o.add("sim.pending_at_start", float64(c.pending))
		for _, ev := range []uint64{c.plainRes.Diag.Events, c.obsRes.Diag.Events, c.recRes.Diag.Events} {
			o.add("sim.events", float64(ev))
		}
		if c.replay != nil {
			o.add("sim.events", float64(c.replay.Events))
		}
		if c.plainErr == nil {
			addPlatform(o, c.plain, c.plainRes)
		}
		if c.tl != nil {
			o.add("obs.samples", float64(c.tl.Ticks))
			o.add("obs.spans_dropped", float64(c.tl.SpansDropped))
			for _, s := range c.tl.Spans {
				o.add("obs.spans", float64(s.Count))
				o.add("pfs.net_s", s.SumNet.Seconds())
				o.add("pfs.queue_s", s.SumQueue.Seconds())
				o.add("pfs.service_s", s.SumService.Seconds())
			}
		}
		if c.rec != nil {
			o.add("trace.records", float64(len(c.rec.Records)))
			o.add("trace.bytes", float64(len(c.encoded)))
		}
		o.sample("core.run_ms_p50", c.plainMs)
		o.sample("core.run_ms_max", c.plainMs)
		o.sample("obs.export_ms", c.exportMs)
		o.sample("trace.encode_ms", c.encMs)
		o.sample("trace.decode_ms", c.decMs)
		o.sample("trace.replay_ms", c.rpMs)
		plainMs += c.plainMs
		obsMs += c.obsMs
		recMs += c.recMs
		c.plain, c.observed = nil, nil
	}
	if plainMs > 0 {
		o.sample("obs.overhead_ratio", obsMs/plainMs)
		o.sample("trace.record_overhead_ratio", recMs/plainMs)
	}
}

// checkObserved: observation is read-only, so the observed run must match
// the plain one in everything but the probe events, and carry a timeline
// with spans.
func (c *observedCase) checkObserved() error {
	switch {
	case c.obsErr != nil:
		return c.obsErr
	case c.plainErr != nil:
		return fmt.Errorf("observed run: no plain run to compare with")
	case c.tl == nil || c.obsRes.Timeline == nil || len(c.tl.Spans) != len(c.apps):
		return fmt.Errorf("observed run: no timeline with per-app spans")
	}
	pd, od := c.plainRes.Diag, c.obsRes.Diag
	pd.Events, od.Events = 0, 0
	if digest(c.plainRes.Apps, pd) != digest(c.obsRes.Apps, od) {
		return fmt.Errorf("observed run differs from the plain run")
	}
	if !reflect.DeepEqual(c.tl, c.obsRes.Timeline) {
		return fmt.Errorf("exporting the timeline twice gave different timelines")
	}
	return nil
}

// checkRecorded: recording must not change the run.
func (c *observedCase) checkRecorded() error {
	switch {
	case c.recErr != nil:
		return c.recErr
	case runDigest(c.recRes) != runDigest(c.plainRes):
		return fmt.Errorf("recorded run differs from the plain run")
	case len(c.rec.Records) == 0:
		return fmt.Errorf("recorded run has no records")
	}
	return nil
}

// checkReplay: Read(Write(t)) must round-trip exactly and the replay must
// reproduce every recorded application window.
func (c *observedCase) checkReplay() error {
	switch {
	case c.recErr != nil:
		return c.recErr
	case c.codecErr != nil:
		return c.codecErr
	case !reflect.DeepEqual(c.rec, c.back):
		return fmt.Errorf("trace.Read(Write(t)) differs from t")
	case c.replayErr != nil:
		return c.replayErr
	case !c.replay.Identical():
		return fmt.Errorf("replay diverged from the recording")
	}
	var again bytes.Buffer
	if err := c.back.Write(&again); err != nil || !bytes.Equal(again.Bytes(), c.encoded) {
		return fmt.Errorf("re-encoding the decoded trace changed its bytes")
	}
	return nil
}

func (r *observedRep) close() {}
