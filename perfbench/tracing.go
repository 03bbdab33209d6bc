package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// tracer records spans around the benchmark's calls into the layers. A
// nil tracer records nothing, so untraced runs pay one nil check per call.
// Spans stay in memory until writeFile.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	rep   int
	root  int // the current set-up or run span: the parent of new spans
	spans []span
}

// span is one call into a layer. Rep identifies the repetition: the spans
// of one repetition share it.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Rep     int    `json:"rep"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// beginRep starts a repetition.
func (t *tracer) beginRep(i int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.rep, t.root = i, 0
	t.mu.Unlock()
}

// phase opens a root span (set-up or run) that parents the spans after it.
func (t *tracer) phase(name string) int {
	if t == nil {
		return 0
	}
	id := t.start(name)
	t.mu.Lock()
	t.spans[id-1].Parent = 0
	t.root = id
	t.mu.Unlock()
	return id
}

// start opens a span under the current phase and returns its id.
func (t *tracer) start(name string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: t.root, Rep: t.rep, Name: name, StartNs: now})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].EndNs = now
	t.mu.Unlock()
}

// selfTimes sums each span name's self time in milliseconds: its duration
// minus the part of it that its child spans cover.
func (t *tracer) selfTimes() map[string]float64 {
	children := map[int][][2]int64{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.StartNs, s.EndNs})
		}
	}
	out := map[string]float64{}
	for _, s := range t.spans {
		out[s.Name] += float64(s.EndNs-s.StartNs-covered(children[s.ID])) / 1e6
	}
	return out
}

// covered is the length of the union of the intervals.
func covered(iv [][2]int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end int64
	for i, x := range iv {
		if i == 0 || x[0] > end {
			total += x[1] - x[0]
			end = x[1]
		} else if x[1] > end {
			total += x[1] - end
			end = x[1]
		}
	}
	return total
}

// writeFile writes the spans as JSON lines.
func (t *tracer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
