package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/scenario"
)

// workloads maps each workload name to the generator of its inputs.
var workloads = map[string]func(seed uint64) (bench, error){
	"paper-fig2":      newFig2,
	"fleet-1024":      newFleet,
	"whatif-mix":      newWhatifMix,
	"observed-replay": newObserved,
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// rng is the seeded source every input generator draws from. salt keeps
// the workloads' streams apart.
func rng(seed, salt uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, salt)) }

// specJSON renders a scenario as the JSON the program is fed. The shards
// key is dropped: every simulation runs on the serial kernel.
func specJSON(s scenario.Spec) ([]byte, error) {
	b, err := json.Marshal(s)
	if err != nil {
		return nil, err
	}
	var m map[string]any
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, err
	}
	delete(m, "shards")
	return json.MarshalIndent(m, "", "  ")
}

// since returns the milliseconds elapsed since t0.
func since(t0 time.Time) float64 { return float64(time.Since(t0).Nanoseconds()) / 1e6 }

// timeCall runs f inside a span and returns its host time in ms.
func timeCall(tr *tracer, name string, f func()) float64 {
	id := tr.start(name)
	t0 := time.Now()
	f()
	ms := since(t0)
	tr.end(id)
	return ms
}

// prepare is core.Prepare with its panic on an invalid spec turned into an
// error.
func prepare(cfg cluster.Config, apps []core.AppSpec) (x *core.Experiment, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("core.Prepare: %v", r)
		}
	}()
	return core.Prepare(cfg, apps), nil
}

// runExp is Experiment.Run with its panic on an unfinished application
// turned into an error.
func runExp(x *core.Experiment) (res core.RunResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("core.Experiment.Run: %v", r)
		}
	}()
	return x.Run(), nil
}

// checkRun verifies a fault-free run: every application finished and the
// servers stored or returned exactly the bytes the applications moved.
func checkRun(res core.RunResult) error {
	var bytes int64
	for _, a := range res.Apps {
		if a.End <= a.Start || a.Elapsed <= 0 {
			return fmt.Errorf("app %s did not finish (start %v, end %v)", a.Name, a.Start, a.End)
		}
		bytes += a.Bytes
	}
	if g := res.Diag.Avail.GoodputBytes; g != bytes {
		return fmt.Errorf("goodput %d bytes, want the apps' %d", g, bytes)
	}
	return nil
}

// runDigest hashes a run's result: every application's window and bytes
// and the whole diagnostic block, event count included.
func runDigest(res core.RunResult) string {
	return digest(res.Apps, res.Diag)
}

// digest hashes the JSON encoding of its arguments.
func digest(v ...any) string {
	h := sha256.New()
	enc := json.NewEncoder(h)
	for _, x := range v {
		if err := enc.Encode(x); err != nil {
			fmt.Fprintf(h, "unencodable %T: %v", x, err)
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:12])
}

// addPlatform adds the layer counters a finished experiment's platform
// holds: processes, transport segments, port drops, device work and the
// goodput the servers saw.
func addPlatform(o *outcome, x *core.Experiment, res core.RunResult) {
	pl := x.Platform
	o.add("sim.procs", float64(pl.E.ProcsSpawned()))
	for _, c := range pl.Fabric.Conns() {
		o.add("netsim.segs_sent", float64(c.Stats().SentSegs))
	}
	d := res.Diag
	o.add("netsim.retrans_segs", float64(d.RetransSegs))
	o.add("netsim.timeouts", float64(d.Timeouts))
	o.add("netsim.port_drops", float64(d.PortDrops))
	for _, dev := range pl.Devices {
		st := dev.Stats()
		o.add("storage.ops", float64(st.Ops))
		o.add("storage.bytes", float64(st.Bytes))
		o.add("storage.seeks", float64(st.Seeks))
		o.add("storage.busy_s", st.Busy.Seconds())
	}
	var end float64
	for _, a := range res.Apps {
		end = max(end, a.End.Seconds())
	}
	o.add("_server_span_s", float64(len(pl.Devices))*end)
	o.add("_goodput_bytes", float64(d.Avail.GoodputBytes))
	o.add("_offered_bytes", float64(d.Avail.OfferedBytes))
}

// derive computes the ratio metrics from the summed counters.
func derive(m map[string]float64) {
	ratio := func(dst string, num, den float64) {
		if den > 0 {
			m[dst] = num / den
		}
	}
	ratio("netsim.useful_ratio", m["netsim.segs_sent"]-m["netsim.retrans_segs"], m["netsim.segs_sent"])
	ratio("pfs.goodput_ratio", m["_goodput_bytes"], m["_offered_bytes"])
	ratio("storage.utilization", m["storage.busy_s"], m["_server_span_s"])
	ratio("whatif.hit_ratio", m["whatif.cache_hits"], m["whatif.cache_hits"]+m["whatif.cache_misses"])
}
