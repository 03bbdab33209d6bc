package scenario

// Golden + conformance guard for the fleet path: the smoke
// fleet builtin's complete result — every generated tenant, every shape
// baseline, the full co-run completion vector, every sampled pair, the
// diagnostics and the class/percentile aggregates — is serialized
// canonically and hashed into testdata/golden_fleet.txt, and must be
// byte-identical across pool parallelism.
//
// Regenerate (after an intentional model change only) with:
//
//	go test ./internal/scenario -run TestGoldenFleet -update

import (
	"crypto/sha256"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
)

const goldenFleetFile = "testdata/golden_fleet.txt"

// goldenFleet serializes one FleetResult exactly: times are integer
// nanoseconds, floats use %.17g (bit-for-bit round-trip).
func goldenFleet(f *FleetResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "fleet %s backend %s tenants %d shapes %d\n",
		f.Spec.Name, f.Backend, len(f.Tenants), f.Core.Shapes)
	for i, t := range f.Tenants {
		fmt.Fprintf(&b, "tenant %d %s class=%s rank=%d procs=%d vol=%d start=%.17g seed=%d iter=%d\n",
			i, t.Name, t.Class, t.Rank, t.Procs, t.VolumeMB, t.StartS, t.Seed, t.Iterations)
	}
	for u, a := range f.Core.Alone {
		fmt.Fprintf(&b, "alone %d %d\n", u, a)
	}
	for i := range f.Core.IF {
		a := f.Core.CoRun.Apps[i]
		fmt.Fprintf(&b, "co %d shape=%d start=%d end=%d e=%d if=%.17g\n",
			i, f.Core.ShapeOf[i], a.Start, a.End, a.Elapsed, f.Core.IF[i])
	}
	for k, p := range f.Core.Pairs {
		fmt.Fprintf(&b, "pair %d %d-%d e0=%d e1=%d if0=%.17g if1=%.17g\n",
			k, p.I, p.J, p.Elapsed[0], p.Elapsed[1], p.IF[0], p.IF[1])
	}
	d := f.Core.CoRun.Diag
	fmt.Fprintf(&b, "diag drops=%d timeouts=%d retrans=%d seeks=%d devbytes=%d cacheblk=%d events=%d\n",
		d.PortDrops, d.Timeouts, d.RetransSegs, d.DeviceSeeks, d.DeviceBytes, d.CacheBlocks, d.Events)
	for _, cs := range f.ClassStats() {
		fmt.Fprintf(&b, "class %s n=%d procs=%d vol=%d mean=%.17g p50=%.17g p95=%.17g max=%.17g\n",
			cs.Class, cs.Count, cs.Procs, cs.VolumeMB, cs.MeanIF, cs.P50IF, cs.P95IF, cs.MaxIF)
	}
	fmt.Fprint(&b, "pct")
	for _, v := range f.IFPercentiles(10, 25, 50, 75, 90, 95, 99, 100) {
		fmt.Fprintf(&b, " %.17g", v)
	}
	fmt.Fprintln(&b)
	return b.String()
}

// fleetGoldenKeys enumerates the fleet builtins on their pinned backend (a
// fleet spec pins one; an unpinned one would golden both axis entries).
func fleetGoldenKeys() (keys []string, gen map[string]func() string) {
	gen = make(map[string]func() string)
	pool := core.Runner{Parallelism: 0}
	for _, s := range FleetBuiltin() {
		s := s
		backends, err := s.Backends()
		if err != nil {
			panic(err)
		}
		for _, backend := range backends {
			backend := backend
			key := s.Name + "@" + backend.String()
			keys = append(keys, key)
			gen[key] = func() string {
				f, err := RunFleet(s.Smoke(), backend, pool)
				if err != nil {
					panic(err)
				}
				return goldenFleet(f)
			}
		}
	}
	return keys, gen
}

func TestGoldenFleet(t *testing.T) {
	keys, gen := fleetGoldenKeys()

	if updateGolden() {
		sorted := append([]string(nil), keys...)
		sort.Strings(sorted)
		var b strings.Builder
		b.WriteString("# sha256 of each fleet builtin's canonical result at smoke scale.\n")
		b.WriteString("# Regenerate: go test ./internal/scenario -run TestGoldenFleet -update-golden\n")
		for _, k := range sorted {
			fmt.Fprintf(&b, "%s %x\n", k, sha256.Sum256([]byte(gen[k]())))
		}
		if err := os.WriteFile(goldenFleetFile, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d results)", goldenFleetFile, len(keys))
		return
	}

	data, err := os.ReadFile(goldenFleetFile)
	if err != nil {
		t.Fatalf("reading %s (regenerate with -update-golden): %v", goldenFleetFile, err)
	}
	want := make(map[string]string)
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("malformed golden line %q", line)
		}
		want[fields[0]] = fields[1]
	}
	for _, key := range keys {
		key := key
		f := gen[key]
		t.Run(key, func(t *testing.T) {
			t.Parallel()
			wantSum, ok := want[key]
			if !ok {
				t.Fatalf("no golden checksum for %q (regenerate with -update-golden)", key)
			}
			text := f()
			got := fmt.Sprintf("%x", sha256.Sum256([]byte(text)))
			if got != wantSum {
				t.Errorf("checksum drift: got %s want %s", got, wantSum)
			}
		})
	}
}

// TestFleetConformance is the metamorphic satellite: the smoke fleet
// builtin's canonical result must be byte-identical across pool
// parallelism {1, GOMAXPROCS}.
func TestFleetConformance(t *testing.T) {
	s := FleetBuiltin()[0].Smoke()
	backends, err := s.Backends()
	if err != nil {
		t.Fatal(err)
	}
	serial, err := RunFleet(s, backends[0], core.Runner{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := goldenFleet(serial)
	par := runtime.GOMAXPROCS(0)
	got, err := RunFleet(s, backends[0], core.Runner{Parallelism: par})
	if err != nil {
		t.Fatal(err)
	}
	if g := goldenFleet(got); g != want {
		t.Errorf("parallelism=%d diverges from the serial run (sha256 %x vs %x)",
			par, sha256.Sum256([]byte(g)), sha256.Sum256([]byte(want)))
	}
}
