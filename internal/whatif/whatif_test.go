package whatif

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/cluster"
	"repro/internal/qos"
	"repro/internal/scenario"
)

// tinySpec is a deliberately small two-application scenario: one δ point,
// a few MB of I/O, fast enough to run several arms per test.
func tinySpec() scenario.Spec {
	return scenario.Spec{
		Name:    "unit-tiny",
		Servers: 2,
		DeltaS:  []float64{0},
		Apps: []scenario.App{
			{Name: "bulk", Procs: 4, BlockMB: 4},
			{Name: "strided", Procs: 2, Pattern: "strided", BlockMB: 2, TransferKB: 256},
		},
	}
}

// recordTinyTrace records tinySpec's δ=0 co-run and returns the IOTRACE1
// bytes.
func recordTinyTrace(t *testing.T) []byte {
	t.Helper()
	tr, _, err := scenario.Record(tinySpec(), cluster.HDD)
	if err != nil {
		t.Fatalf("recording trace: %v", err)
	}
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatalf("encoding trace: %v", err)
	}
	return buf.Bytes()
}

func mustReportJSON(t *testing.T, rep *Report) []byte {
	t.Helper()
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatalf("marshal report: %v", err)
	}
	return b
}

func TestComputeScenario(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	spec := tinySpec()
	q := &Query{Spec: &spec, Backend: cluster.HDD, Arms: []qos.Kind{qos.FairShare, qos.TokenBucket}}

	rep, hit, err := s.Compute(q)
	if err != nil {
		t.Fatalf("Compute: %v", err)
	}
	if hit {
		t.Fatal("cold compute reported a cache hit")
	}
	if rep.Kind != "scenario" || rep.Name != "unit-tiny" || rep.Backend != "hdd" {
		t.Fatalf("report header = %s/%s/%s", rep.Kind, rep.Name, rep.Backend)
	}
	if want := []string{"bulk", "strided"}; len(rep.Apps) != 2 || rep.Apps[0] != want[0] || rep.Apps[1] != want[1] {
		t.Fatalf("apps = %v, want %v", rep.Apps, want)
	}
	if len(rep.Arms) != 3 || rep.Arms[0].Scheme != "off" || rep.Arms[1].Scheme != "fairshare" || rep.Arms[2].Scheme != "tokenbucket" {
		t.Fatalf("arm order wrong: %v", []string{rep.Arms[0].Scheme, rep.Arms[1].Scheme, rep.Arms[2].Scheme})
	}
	for i, a := range rep.Arms {
		if a.Text == "" || len(a.Points) != 1 || len(a.AloneS) != 2 {
			t.Fatalf("arm %d (%s) incomplete: text=%d bytes, %d points, %d alone", i, a.Scheme, len(a.Text), len(a.Points), len(a.AloneS))
		}
	}
	if len(rep.Pareto) != 3 || rep.Pareto[0].Scheme != "off" || rep.ParetoText == "" {
		t.Fatalf("pareto incomplete: %+v", rep.Pareto)
	}

	// Second identical query: baseline from the cache, bytes unchanged.
	rep2, hit2, err := s.Compute(q)
	if err != nil {
		t.Fatalf("Compute (warm): %v", err)
	}
	if !hit2 {
		t.Fatal("second identical query missed the cache")
	}
	if !bytes.Equal(mustReportJSON(t, rep), mustReportJSON(t, rep2)) {
		t.Fatal("cache-hit report differs from the cold one")
	}
}

func TestComputeTrace(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	raw := recordTinyTrace(t)
	q := &Query{Trace: raw, Label: "tiny.trace", Arms: []qos.Kind{qos.FairShare}}

	rep, hit, err := s.Compute(q)
	if err != nil {
		t.Fatalf("Compute: %v", err)
	}
	if hit {
		t.Fatal("cold trace compute reported a hit")
	}
	if rep.Kind != "trace" || rep.Name != "tiny.trace" {
		t.Fatalf("report header = %s/%s", rep.Kind, rep.Name)
	}
	if len(rep.Arms) != 2 {
		t.Fatalf("arms = %d, want baseline + fairshare", len(rep.Arms))
	}
	base := rep.Arms[0]
	if base.Scheme != "off" || base.Identical == nil || !*base.Identical {
		t.Fatalf("baseline arm not a verified round trip: %+v", base)
	}
	for _, ta := range base.TraceApps {
		if ta.IF != 1 {
			t.Fatalf("baseline IF %v for %s, want 1", ta.IF, ta.Name)
		}
	}
	if rep.Pareto[0].PeakIF != 1 || rep.Pareto[0].Unfairness != 0 {
		t.Fatalf("trace pareto baseline row: %+v", rep.Pareto[0])
	}

	rep2, hit2, err := s.Compute(q)
	if err != nil || !hit2 {
		t.Fatalf("warm trace compute: hit=%v err=%v", hit2, err)
	}
	if !bytes.Equal(mustReportJSON(t, rep), mustReportJSON(t, rep2)) {
		t.Fatal("cache-hit trace report differs from the cold one")
	}

	// A different display label renders different table titles, so it must
	// be a different baseline identity.
	_, hit3, err := s.Compute(&Query{Trace: raw, Label: "other.trace", Arms: []qos.Kind{qos.FairShare}})
	if err != nil {
		t.Fatalf("relabeled compute: %v", err)
	}
	if hit3 {
		t.Fatal("same bytes under a different label served from the cache")
	}
}

func TestComputeRejects(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	spec := tinySpec()
	cases := []struct {
		name string
		q    *Query
	}{
		{"neither spec nor trace", &Query{}},
		{"both spec and trace", &Query{Spec: &spec, Trace: []byte("IOTRACE1")}},
		{"garbage trace", &Query{Trace: []byte("not a trace")}},
	}
	for _, tc := range cases {
		if _, _, err := s.Compute(tc.q); err == nil || !IsBadRequest(err) {
			t.Fatalf("%s: err = %v, want bad request", tc.name, err)
		}
	}
}

func TestParseArms(t *testing.T) {
	def, err := ParseArms(nil)
	if err != nil || len(def) != 3 {
		t.Fatalf("default arms = %v, %v", def, err)
	}
	if _, err := ParseArms([]string{"off"}); err == nil {
		t.Fatal("arm \"off\" accepted")
	}
	if _, err := ParseArms([]string{"fairshare", "fairshare"}); err == nil {
		t.Fatal("duplicate arm accepted")
	}
	if _, err := ParseArms([]string{"nope"}); err == nil {
		t.Fatal("unknown arm accepted")
	}
	one, err := ParseArms([]string{"controller"})
	if err != nil || len(one) != 1 || one[0] != qos.Controller {
		t.Fatalf("single arm = %v, %v", one, err)
	}
}
