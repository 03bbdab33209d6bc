package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/qos"
	"repro/internal/scenario"
	"repro/internal/trace"
	"repro/internal/whatif"
)

// whatifMix serves the what-if service over a loopback listener in this
// process and drives it with two closed-loop clients, each on one
// keep-alive connection, through a seeded schedule of scenario misses
// (fresh names), repeats of earlier requests (baseline cache hits) and
// IOTRACE1 uploads recorded during set-up. Every session sweeps all three
// QoS arms against the baseline. A fresh server per repetition keeps the
// miss/hit pattern the same in every repetition.
type whatifMix struct {
	clients [2][]item
	traces  [][]byte // scenario JSON of the runs recorded for upload

	// want caches the expected arm texts of each request key, computed by
	// direct runs the first time a response is checked.
	want map[string][]armText
}

// item is one request of a client's schedule.
type item struct {
	Class string `json:"class"` // miss, hit or trace
	// Key names the request: a hit repeats the miss with the same key, a
	// trace upload uses it as the trace's display label.
	Key   string          `json:"key"`
	Body  json.RawMessage `json:"body,omitempty"`  // scenario requests
	Trace int             `json:"trace,omitempty"` // trace uploads: index into traces
}

type armText struct{ scheme, text string }

// mixArms are the arms every session sweeps.
var mixArms = []string{"fairshare", "tokenbucket", "controller"}

// newWhatifMix generates the schedule. Each client gets every other
// non-fault builtin at smoke scale under a fresh name, three seeded small
// specs of one fixed shape, one upload of each of three recorded runs, and
// one repeat of each of its scenario requests, placed after the original.
// The seed draws the order, the start offsets, the δ grid and the patterns'
// placement, not the amount of work, so every seed loads the service alike.
func newWhatifMix(seed uint64) (bench, error) {
	r := rng(seed, 3)
	b := &whatifMix{want: map[string][]armText{}}
	n := 0
	for _, s := range scenario.Builtin() {
		if s.Faults != nil {
			continue
		}
		s.Name = fmt.Sprintf("%s-s%d", s.Name, seed)
		it, err := scenarioItem(s, "hdd", true)
		if err != nil {
			return nil, err
		}
		b.clients[n%2] = append(b.clients[n%2], it)
		n++
	}
	patterns := []scenario.App{
		{Procs: 4, BlockMB: 4},
		{Procs: 4, BlockMB: 4, Pattern: "strided", TransferKB: 256},
		{Procs: 4, BlockMB: 4, Pattern: "strided", TransferKB: 1024},
	}
	for k := 0; k < 6; k++ {
		d := float64(20+r.IntN(61)) / 1000
		s := scenario.Spec{Name: fmt.Sprintf("mix-s%d-%d", seed, k), Servers: 4, DeltaS: []float64{-d, 0, d}}
		for _, a := range r.Perm(len(patterns)) {
			app := patterns[a]
			app.StartS = float64(r.IntN(21)) / 1000
			s.Apps = append(s.Apps, app)
		}
		it, err := scenarioItem(s, []string{"hdd", "ssd"}[k/2%2], false)
		if err != nil {
			return nil, err
		}
		b.clients[k%2] = append(b.clients[k%2], it)
	}
	for t, name := range []string{"periodic-checkpoint-4", "aggressor-victim", "bursty-poisson-mix"} {
		s, err := scenario.Lookup(name)
		if err != nil {
			return nil, err
		}
		s = s.Smoke()
		s.Backend = "hdd"
		s.DeltaS = []float64{float64(r.IntN(50)) / 1000}
		js, err := specJSON(s)
		if err != nil {
			return nil, err
		}
		b.traces = append(b.traces, js)
		for c := range b.clients {
			up := item{Class: "trace", Key: fmt.Sprintf("trace-s%d-%d-%d.trace", seed, t, c), Trace: t}
			b.clients[c] = append(b.clients[c], up)
		}
	}
	for c := range b.clients {
		list := b.clients[c]
		r.Shuffle(len(list), func(i, j int) { list[i], list[j] = list[j], list[i] })
		for _, it := range append([]item(nil), list...) {
			if it.Class != "miss" {
				continue
			}
			at := indexOf(list, it.Key) + 1
			at += r.IntN(len(list) - at + 1)
			hit := it
			hit.Class = "hit"
			list = append(list[:at], append([]item{hit}, list[at:]...)...)
		}
		b.clients[c] = list
	}
	return b, nil
}

func indexOf(list []item, key string) int {
	for i, it := range list {
		if it.Key == key {
			return i
		}
	}
	return -1
}

// scenarioItem wraps a spec in the POST /v1/whatif envelope.
func scenarioItem(s scenario.Spec, backend string, smoke bool) (item, error) {
	js, err := specJSON(s)
	if err != nil {
		return item{}, err
	}
	wait := true
	body, err := json.Marshal(map[string]any{
		"scenario": json.RawMessage(js), "backend": backend, "smoke": smoke,
		"arms": mixArms, "wait": &wait,
	})
	return item{Class: "miss", Key: s.Name, Body: body}, err
}

func (b *whatifMix) inputs() map[string][]byte {
	sched, _ := json.MarshalIndent(map[string]any{"clients": b.clients}, "", "  ")
	m := map[string][]byte{"schedule.json": sched}
	for i, t := range b.traces {
		m[fmt.Sprintf("trace-%d.json", i)] = t
	}
	return m
}

// response is what a client saw for one request.
type response struct {
	status int
	cache  string
	body   []byte
	err    error
	ms     float64
}

type whatifRep struct {
	b       *whatifMix
	srv     *whatif.Server
	hs      *http.Server
	served  chan error
	base    string
	clients [2]*http.Client
	traces  [][]byte // the IOTRACE1 recordings, as uploaded
	records int      // records in those recordings
	resp    [2][]response
	health  whatif.Health
}

// workers is the session pool size: two, or fewer on a smaller machine.
func workers() int { return min(2, runtime.NumCPU()) }

func (b *whatifMix) setup(tr *tracer) (repetition, error) {
	r := &whatifRep{b: b, served: make(chan error, 1)}
	for _, js := range b.traces {
		t, err := recordSpec(tr, js)
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		id := tr.start("trace.Trace.Write")
		err = t.Write(&buf)
		tr.end(id)
		if err != nil {
			return nil, err
		}
		r.traces = append(r.traces, buf.Bytes())
		r.records += len(t.Records)
	}
	id := tr.start("whatif.New")
	r.srv = whatif.New(whatif.Config{Workers: workers(), Jobs: 1})
	tr.end(id)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		r.srv.Close()
		return nil, err
	}
	r.base = "http://" + ln.Addr().String()
	r.hs = &http.Server{Handler: r.srv.Handler()}
	go func() { r.served <- r.hs.Serve(ln) }()
	for c := range r.clients {
		r.clients[c] = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
		// Warm-up: open the client's keep-alive connection.
		if resp := r.do(c, http.MethodGet, "/healthz", nil); resp.err != nil || resp.status != http.StatusOK {
			r.close()
			return nil, fmt.Errorf("warm-up: status %d, %v", resp.status, resp.err)
		}
	}
	return r, nil
}

// recordSpec records the δ=0 co-run of a scenario for upload.
func recordSpec(tr *tracer, js []byte) (*trace.Trace, error) {
	s, err := scenario.Parse(js)
	if err != nil {
		return nil, err
	}
	cfg, ds, err := s.Build(cluster.HDD)
	if err != nil {
		return nil, err
	}
	id := tr.start("trace.RecordRun")
	defer tr.end(id)
	t, _, err := recordRun(cfg, ds.AppsAt(0))
	return t, err
}

// do sends one request and reads the whole response.
func (r *whatifRep) do(c int, method, path string, body []byte) response {
	t0 := time.Now()
	req, err := http.NewRequest(method, r.base+path, bytes.NewReader(body))
	if err != nil {
		return response{err: err}
	}
	resp, err := r.clients[c].Do(req)
	if err != nil {
		return response{err: err, ms: since(t0)}
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return response{status: resp.StatusCode, cache: resp.Header.Get("X-Whatif-Cache"), body: data, err: err, ms: since(t0)}
}

func (r *whatifRep) run(tr *tracer) {
	var wg sync.WaitGroup
	for c := range r.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, it := range r.b.clients[c] {
				id := tr.start("http " + it.Class)
				if it.Class == "trace" {
					q := url.Values{"name": {it.Key}, "arms": {strings.Join(mixArms, ",")}}
					r.resp[c] = append(r.resp[c], r.do(c, http.MethodPost, "/v1/whatif/trace?"+q.Encode(), r.traces[it.Trace]))
				} else {
					r.resp[c] = append(r.resp[c], r.do(c, http.MethodPost, "/v1/whatif", it.Body))
				}
				tr.end(id)
			}
		}()
	}
	wg.Wait()
	r.health = r.srv.Health()
}

func (r *whatifRep) poll(o *outcome) {
	o.sample("whatif.queue_depth_max", float64(r.srv.Health().QueueDepth))
}

func (r *whatifRep) close() {
	for _, cl := range r.clients {
		if cl != nil {
			cl.CloseIdleConnections()
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	// Serve returns as soon as Shutdown starts; a Shutdown that times out
	// leaves nothing running once srv.Close has drained the sessions.
	_ = r.hs.Shutdown(ctx)
	<-r.served
	r.srv.Close()
}

// check verifies every response. A miss and a trace upload must carry, arm
// by arm, the text a direct run renders; a hit must repeat its miss's body
// byte for byte; a trace's baseline replay must be identical to the
// recording. Any status but 200 fails.
func (r *whatifRep) check(o *outcome) {
	for c, list := range r.b.clients {
		missBody := map[string][]byte{}
		for i, it := range list {
			if i >= len(r.resp[c]) {
				o.op("", fmt.Errorf("%s %s: no response", it.Class, it.Key))
				continue
			}
			resp := r.resp[c][i]
			o.sample("lat:"+it.Class, resp.ms)
			err := r.checkOne(it, resp, missBody)
			o.op(digest(resp.status, resp.body), err)
			if it.Class == "miss" {
				missBody[it.Key] = resp.body
			}
		}
	}
	h := r.health
	o.add("whatif.sessions", float64(h.Sessions))
	o.add("whatif.cache_hits", float64(h.Cache.Hits))
	o.add("whatif.cache_misses", float64(h.Cache.Misses))
	o.add("whatif.evictions", float64(h.Cache.Evictions))
	o.add("whatif.rejected", float64(h.Rejected))
	o.add("qos.arm_runs", float64(h.Sessions)*float64(len(mixArms)))
	o.add("trace.records", float64(r.records))
	for _, t := range r.traces {
		o.add("trace.bytes", float64(len(t)))
	}
}

func (r *whatifRep) checkOne(it item, resp response, missBody map[string][]byte) error {
	wantCache := "miss"
	if it.Class == "hit" {
		wantCache = "hit"
	}
	switch {
	case resp.err != nil:
		return fmt.Errorf("%s %s: %v", it.Class, it.Key, resp.err)
	case resp.status != http.StatusOK:
		return fmt.Errorf("%s %s: status %d: %s", it.Class, it.Key, resp.status, bytes.TrimSpace(resp.body))
	case resp.cache != wantCache:
		return fmt.Errorf("%s %s: X-Whatif-Cache %q, want %q", it.Class, it.Key, resp.cache, wantCache)
	}
	if it.Class == "hit" {
		if !bytes.Equal(resp.body, missBody[it.Key]) {
			return fmt.Errorf("hit %s: body differs from its miss", it.Key)
		}
		return nil
	}
	var rep whatif.Report
	if err := json.Unmarshal(resp.body, &rep); err != nil {
		return fmt.Errorf("%s %s: decoding the report: %v", it.Class, it.Key, err)
	}
	want, err := r.b.expected(it, r.traces)
	if err != nil {
		return fmt.Errorf("%s %s: direct run: %v", it.Class, it.Key, err)
	}
	if len(rep.Arms) != len(want) {
		return fmt.Errorf("%s %s: %d arms, want %d", it.Class, it.Key, len(rep.Arms), len(want))
	}
	for i, a := range rep.Arms {
		if a.Scheme != want[i].scheme || a.Text != want[i].text {
			return fmt.Errorf("%s %s: arm %s differs from the direct run", it.Class, it.Key, want[i].scheme)
		}
	}
	if it.Class == "trace" && (rep.Arms[0].Identical == nil || !*rep.Arms[0].Identical) {
		return fmt.Errorf("trace %s: baseline replay not identical to the recording", it.Key)
	}
	return nil
}

// expected renders the arm texts of a request by running it directly: the
// baseline ("off") and every arm, through scenario.Run or trace.ReplayOn
// and the service's own text renderers.
func (b *whatifMix) expected(it item, traces [][]byte) ([]armText, error) {
	if w, ok := b.want[it.Key]; ok {
		return w, nil
	}
	schemes := append([]string{qos.Off.String()}, mixArms...)
	var out []armText
	if it.Class == "trace" {
		t, err := trace.Read(bytes.NewReader(traces[it.Trace]))
		if err != nil {
			return nil, err
		}
		for i, scheme := range schemes {
			cfg := t.Header.Cfg
			label := ""
			if i > 0 {
				k, err := qos.ParseKind(scheme)
				if err != nil {
					return nil, err
				}
				cfg.Srv.QoS = qos.Params{Kind: k}
				label = scheme
			}
			rep, err := trace.ReplayOn(t, cfg)
			if err != nil {
				return nil, err
			}
			if i == 0 && !rep.Identical() {
				return nil, fmt.Errorf("direct baseline replay diverged from the recording")
			}
			text, err := whatif.ReplayText(it.Key, label, rep, t, true)
			if err != nil {
				return nil, err
			}
			out = append(out, armText{scheme, text})
		}
	} else {
		var env struct {
			Scenario json.RawMessage `json:"scenario"`
			Backend  string          `json:"backend"`
			Smoke    bool            `json:"smoke"`
		}
		if err := json.Unmarshal(it.Body, &env); err != nil {
			return nil, err
		}
		s, err := scenario.Parse(env.Scenario)
		if err != nil {
			return nil, err
		}
		if env.Smoke {
			s = s.Smoke()
		}
		backend, err := cluster.ParseBackend(env.Backend)
		if err != nil {
			return nil, err
		}
		for _, scheme := range schemes {
			arm := s
			arm.QoS = &scenario.QoS{Scheduler: scheme}
			res, err := scenario.Run(arm, backend, core.Runner{Parallelism: 1})
			if err != nil {
				return nil, err
			}
			run, err := whatif.ScenarioRunText(res, true)
			if err != nil {
				return nil, err
			}
			sum, err := whatif.ScenarioSummaryText([]*scenario.Result{res}, true)
			if err != nil {
				return nil, err
			}
			out = append(out, armText{scheme, run + sum})
		}
	}
	b.want[it.Key] = out
	return out, nil
}
