package scenario

// Serial-oracle conformance suite for engine isolation: every built-in
// scenario, on both storage backends, must produce a canonical result
// (goldenResult — completion vectors, δ points with diagnostics and event
// counts, pairwise IF matrices) that is byte-for-byte identical whether
// its runs execute one at a time or all at once on a parallel pool. Each
// simulation owns its engine, so the pool is only allowed to change
// wall-clock time, never a single output byte. The "Shard" in some test
// names dates from a kernel that split one simulation over several
// engines; these tests now hold the parallel pool to the serial oracle.

import (
	"crypto/sha256"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
)

// conformanceParallelism is the pool width checked against the serial
// oracle: every core, and at least two so engines really do overlap.
func conformanceParallelism() int {
	if n := runtime.GOMAXPROCS(0); n > 2 {
		return n
	}
	return 2
}

func TestShardConformance(t *testing.T) {
	backends := []cluster.BackendKind{cluster.HDD, cluster.SSD}
	if testing.Short() {
		// -race CI smoke: one backend, every scenario.
		backends = backends[:1]
	}
	for _, s := range Builtin() {
		for _, backend := range backends {
			s, backend := s, backend
			t.Run(s.Name+"@"+backend.String(), func(t *testing.T) {
				t.Parallel()
				smoke := s.Smoke()
				serial, err := Run(smoke, backend, core.Runner{Parallelism: 1})
				if err != nil {
					t.Fatal(err)
				}
				want := goldenResult(serial)
				par := conformanceParallelism()
				r, err := Run(smoke, backend, core.Runner{Parallelism: par})
				if err != nil {
					t.Fatal(err)
				}
				if got := goldenResult(r); got != want {
					t.Errorf("parallelism=%d diverges from serial oracle (sha256 %x vs %x):\n got:\n%s\nwant:\n%s",
						par, sha256.Sum256([]byte(got)), sha256.Sum256([]byte(want)), got, want)
				}
			})
		}
	}
}

// shardKnobSpecs are scenario documents that still carry the removed
// "shards" knob, which once selected how many engines one simulation was
// split over. A synthetic scenario and a trace scenario both have to fail.
var shardKnobSpecs = []struct{ name, body string }{
	{"synthetic", `{"name":"x","shards":4,"apps":[{"procs":2,"block_mb":4}]}`},
	{"trace", `{"name":"t","trace":{"path":"x"},"shards":2}`},
}

// TestShardKnobInSpec checks the declarative path: a spec carrying the
// removed "shards" knob is a parse error naming the field, never a spec
// that silently runs without it. The same document minus the knob parses,
// so the knob alone is what gets rejected.
func TestShardKnobInSpec(t *testing.T) {
	for _, tc := range shardKnobSpecs {
		_, err := Parse([]byte(tc.body))
		if err == nil {
			t.Errorf("%s: spec with the removed shards knob parsed", tc.name)
		} else if !strings.Contains(err.Error(), `"shards"`) {
			t.Errorf("%s: error %q does not name the shards field", tc.name, err)
		}
		without := strings.Replace(strings.Replace(tc.body, `"shards":4,`, "", 1), `,"shards":2`, "", 1)
		if _, err := Parse([]byte(without)); err != nil {
			t.Errorf("%s: spec without the knob failed to parse: %v", tc.name, err)
		}
	}
}

// TestShardKnobValidation pins the knob's error surface on the file path
// that `scenarios -file` reads: the error names both the file and the
// field.
func TestShardKnobValidation(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range shardKnobSpecs {
		path := filepath.Join(dir, tc.name+".json")
		if err := os.WriteFile(path, []byte(tc.body), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := Load(path)
		if err == nil {
			t.Errorf("%s: spec file with the removed shards knob loaded", tc.name)
			continue
		}
		if msg := err.Error(); !strings.Contains(msg, path) || !strings.Contains(msg, `"shards"`) {
			t.Errorf("%s: error %q does not name both the file and the shards field", tc.name, msg)
		}
	}
}
