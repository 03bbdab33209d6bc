package core

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/workload"
)

// The tests in this file pin engine isolation. Each simulation owns one
// engine: its event heap, payload slab and free list, its random streams
// and its fault schedule. The parallelism left in the program is many of
// these engines at once, on a worker pool or on concurrent requests. So a
// run must come out byte-for-byte the same alone and alongside copies of
// itself. Shared state between engines, such as a package-level free list
// or a global random stream, breaks that first. Some test names still say
// "Shard": they once compared a simulation split over several engines
// with the serial run, and they now compare concurrent runs with it.

// concurrentRuns executes run on max(2, GOMAXPROCS) goroutines at once and
// returns each result in goroutine order.
func concurrentRuns(run func() string) []string {
	n := runtime.GOMAXPROCS(0)
	if n < 2 {
		n = 2
	}
	out := make([]string, n)
	var wg sync.WaitGroup
	for i := range out {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out[i] = run()
		}(i)
	}
	wg.Wait()
	return out
}

// requireIsolated runs run once alone as the oracle, once more alone, and
// then concurrently, and fails on the first result that differs.
func requireIsolated(t *testing.T, run func() string) {
	t.Helper()
	want := run()
	if got := run(); got != want {
		t.Fatalf("a second serial run diverges:\n got %s\nwant %s", got, want)
	}
	for i, got := range concurrentRuns(run) {
		if got != want {
			t.Fatalf("concurrent run %d diverges from the serial run:\n got %s\nwant %s", i, got, want)
		}
	}
}

// TestShardEquivalence checks that the full RunResult of an experiment —
// completion windows, per-app elapsed times, transport and device
// diagnostics, event counts — does not depend on what else runs in the
// process. It sweeps both storage backends, contiguous and strided
// patterns, and queue-depth pipelining. The scenario-level conformance
// suite in internal/scenario covers the builtin scenarios; this test
// covers the raw core API at scales and patterns the builtins don't reach.
func TestShardEquivalence(t *testing.T) {
	cases := []struct {
		name    string
		scale   int
		backend cluster.BackendKind
		strided bool
		qd      int
	}{
		{"hdd-contig", 8, cluster.HDD, false, 0},
		{"ssd-contig", 8, cluster.SSD, false, 0},
		{"hdd-strided", 8, cluster.HDD, true, 0},
		{"ssd-strided", 4, cluster.SSD, true, 0},
		{"hdd-qd4", 4, cluster.HDD, false, 4},
		{"ssd-big", 2, cluster.SSD, true, 0},
	}
	if testing.Short() {
		// Keep one case per backend so the -race smoke still runs both
		// device models concurrently.
		cases = cases[:2]
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := cluster.Default().Scale(tc.scale)
			cfg.Backend = tc.backend
			wl := workload.Spec{BlockBytes: 4 << 20, TransferSize: 256 << 10}
			if tc.strided {
				wl.Pattern = workload.Strided
			}
			wl.QD = tc.qd
			requireIsolated(t, func() string {
				return fmt.Sprintf("%+v", Prepare(cfg, TwoAppSpecs(cfg, 8, 4, wl)).Run())
			})
		})
	}
}

// TestFaultShardConformance: a faulted run is reproduced bit-for-bit when
// copies of it run concurrently. Fault events are scheduled on the run's
// own engine at setup time, so one run's crashes, loss bursts and device
// degradations must never reach another's.
func TestFaultShardConformance(t *testing.T) {
	run := func() RunResult {
		cfg := faultCfg(
			fault.Event{At: 10 * sim.Millisecond, Kind: fault.ServerCrash, Server: 1},
			fault.Event{At: 40 * sim.Millisecond, Kind: fault.LossBurst, Server: 2, Duration: 30 * sim.Millisecond},
			fault.Event{At: 160 * sim.Millisecond, Kind: fault.ServerRestart, Server: 1},
			fault.Event{At: 60 * sim.Millisecond, Kind: fault.DeviceDegrade, Server: 3, Factor: 4},
			fault.Event{At: 220 * sim.Millisecond, Kind: fault.DeviceRestore, Server: 3},
		)
		return Prepare(cfg, TwoAppSpecs(cfg, 8, 4, tinyWorkload())).Run()
	}
	oracle := run()
	if oracle.Diag.Avail.Crashes == 0 {
		t.Fatal("the fault plan did not fire; the test would compare fault-free runs")
	}
	if again := run(); !reflect.DeepEqual(oracle, again) {
		t.Fatal("faulted runs are not reproducible")
	}
	want := fmt.Sprintf("%+v", oracle)
	for i, got := range concurrentRuns(func() string { return fmt.Sprintf("%+v", run()) }) {
		if got != want {
			t.Fatalf("concurrent faulted run %d diverged from the serial run:\nserial:     %s\nconcurrent: %s",
				i, want, got)
		}
	}
}

// TestProgramJitterShardIndependence pins the random-stream ownership
// rule: every generator that feeds a simulation — the rank-local program
// jitter streams (seeded only by Program.Seed) and the platform's FS.Rand
// issue-jitter fork — belongs to that simulation's platform. Runs of
// seeded multi-phase programs with issue jitter active are therefore
// bit-identical whether they run alone or beside copies of themselves
// drawing from streams with the same seeds.
func TestProgramJitterShardIndependence(t *testing.T) {
	cfg := cluster.Default().Scale(8)
	if cfg.IssueJitter <= 0 {
		t.Fatal("test needs issue jitter active to exercise FS.Rand")
	}
	requireIsolated(t, func() string {
		return fmt.Sprintf("%+v", Prepare(cfg, jitterPrograms(cfg)).Run())
	})
}
