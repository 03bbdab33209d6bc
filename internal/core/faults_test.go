package core

import (
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/pfs"
	"repro/internal/sim"
	"repro/internal/workload"
)

// testRetry is a fast-timescale policy so deadlines actually fire within
// tiny-platform runs.
func testRetry() fault.RetryPolicy {
	return fault.RetryPolicy{
		Deadline:   50 * sim.Millisecond,
		Backoff:    10 * sim.Millisecond,
		BackoffMax: 80 * sim.Millisecond,
		MaxRetries: 40,
		Budget:     -1, // unlimited
		Resume:     20 * sim.Millisecond,
	}
}

func faultCfg(events ...fault.Event) cluster.Config {
	cfg := tinyConfig(cluster.RAM, pfs.SyncOn)
	cfg.Faults = &fault.Plan{Events: events, Retry: testRetry()}
	return cfg
}

// TestCrashRestartLiveness is the liveness contract: an application whose
// server crashes mid-burst stalls, retries, and completes after the
// restart — the simulation terminates and the work all lands. It covers the
// pfs client's blocking and pipelined paths, with deadline retries alone
// and with retries exhausted (ErrUnavailable, then a Resume stall and a
// re-issue). Event and failure counts are pinned: no fault golden reaches
// the pipelined or exhausted-retry paths.
func TestCrashRestartLiveness(t *testing.T) {
	strided := func(qd int) workload.Spec {
		return workload.Spec{Pattern: workload.Strided, BlockBytes: 4 << 20, TransferSize: 256 << 10, QD: qd}
	}
	cases := []struct {
		name       string
		wl         workload.Spec
		restart    sim.Time
		maxRetries int
		start      sim.Time // app B's start
		events     uint64
		failures   int64
	}{
		{"blocking", tinyWorkload(), 150 * sim.Millisecond, 40, 0, 11008, 0},
		{"blocking-exhausted", strided(1), 400 * sim.Millisecond, 1, 5 * sim.Millisecond, 11852, 48},
		{"pipelined", strided(4), 400 * sim.Millisecond, 40, 5 * sim.Millisecond, 12193, 0},
		{"pipelined-exhausted", strided(4), 400 * sim.Millisecond, 1, 5 * sim.Millisecond, 19507, 222},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := faultCfg(
				fault.Event{At: 10 * sim.Millisecond, Kind: fault.ServerCrash, Server: 0},
				fault.Event{At: tc.restart, Kind: fault.ServerRestart, Server: 0},
			)
			cfg.Faults.Retry.MaxRetries = tc.maxRetries
			apps := TwoAppSpecs(cfg, 8, 4, tc.wl)
			apps[1].Start = tc.start
			res := Prepare(cfg, apps).Run() // collect panics on deadlock
			av := res.Diag.Avail
			if av.Crashes != 1 {
				t.Fatalf("crashes = %d, want 1", av.Crashes)
			}
			if av.Downtime < 100*sim.Millisecond {
				t.Fatalf("downtime = %v, want >= 100ms", av.Downtime)
			}
			if av.RPCTimeouts == 0 || av.Retries == 0 {
				t.Fatalf("timeouts = %d retries = %d, want both > 0", av.RPCTimeouts, av.Retries)
			}
			for _, a := range res.Apps {
				if a.End < tc.restart {
					t.Fatalf("app %s finished at %v, before the restart", a.Name, a.End)
				}
			}
			if res.Diag.Events != tc.events {
				t.Errorf("events = %d, want %d", res.Diag.Events, tc.events)
			}
			if av.Failures != tc.failures {
				t.Errorf("failures = %d, want %d", av.Failures, tc.failures)
			}
		})
	}
}

// TestFaultComparisonIF: a mid-burst crash must cost elapsed time against
// the healthy baseline, and the goodput ratio must drop below 1 (discarded
// bytes were offered but not stored).
func TestFaultComparisonIF(t *testing.T) {
	cfg := faultCfg(
		fault.Event{At: 10 * sim.Millisecond, Kind: fault.ServerCrash, Server: 1},
		fault.Event{At: 200 * sim.Millisecond, Kind: fault.ServerRestart, Server: 1},
	)
	apps := TwoAppSpecs(cfg, 8, 4, tinyWorkload())
	fc := RunFaultComparison(cfg, apps)
	for i := range fc.Faulted.Apps {
		if ifv := fc.IF(i); ifv <= 1.0 {
			t.Fatalf("app %d IF under faults = %.3f, want > 1", i, ifv)
		}
	}
	if fc.Faulted.Diag.Avail.DiscardedBytes > 0 && fc.GoodputRatio() >= 1 {
		t.Fatalf("goodput ratio = %.3f with %d discarded bytes, want < 1",
			fc.GoodputRatio(), fc.Faulted.Diag.Avail.DiscardedBytes)
	}
	if fc.Healthy.Diag.Avail.Crashes != 0 || fc.Healthy.Diag.Avail.Retries != 0 {
		t.Fatalf("healthy arm saw faults: %+v", fc.Healthy.Diag.Avail)
	}
}

// TestDegradedDeviceSlowsRun: a degraded device must stretch its victim's
// elapsed time while leaving an app on a healthy server comparatively
// unharmed. The apps are pinned to disjoint servers so the degraded device
// sits squarely on the victim's critical path (on a shared-stripe platform
// an incast RTO can hide a modest degrade).
func TestDegradedDeviceSlowsRun(t *testing.T) {
	cfg := faultCfg(
		fault.Event{At: 2 * sim.Millisecond, Kind: fault.DeviceDegrade, Server: 0, Factor: 8},
		fault.Event{At: 2 * sim.Second, Kind: fault.DeviceRestore, Server: 0},
	)
	apps := TwoAppSpecs(cfg, 8, 4, tinyWorkload())
	apps[0].TargetServers = []int{0} // victim
	apps[1].TargetServers = []int{1} // bystander
	fc := RunFaultComparison(cfg, apps)
	if fc.IF(0) <= 1.05 {
		t.Fatalf("victim IF = %.3f, want > 1.05 under a factor-8 degrade", fc.IF(0))
	}
	if fc.IF(1) > fc.IF(0) {
		t.Fatalf("bystander IF %.3f exceeds victim IF %.3f", fc.IF(1), fc.IF(0))
	}
}

// TestLinkFlapRecovers: an admin-down link drops traffic; senders back off
// through RTO, the retry layer rides it out, and the run completes after
// the link returns.
func TestLinkFlapRecovers(t *testing.T) {
	cfg := faultCfg(
		fault.Event{At: 10 * sim.Millisecond, Kind: fault.LinkDown, Server: 0},
		fault.Event{At: 250 * sim.Millisecond, Kind: fault.LinkUp, Server: 0},
	)
	apps := TwoAppSpecs(cfg, 8, 4, tinyWorkload())
	res := Prepare(cfg, apps).Run()
	if res.Diag.Avail.LinkDrops == 0 {
		t.Fatal("no link drops recorded across a 240ms outage")
	}
	for _, a := range res.Apps {
		if a.End < 250*sim.Millisecond {
			t.Fatalf("app %s finished at %v, before the link came back", a.Name, a.End)
		}
	}
}

// TestNoFaultNilPlanIdentical: a nil fault plan must leave the platform
// bit-identical to one built before the fault subsystem existed — the
// golden-safety invariant, checked directly here (the figure goldens check
// it at scale).
func TestNoFaultNilPlanIdentical(t *testing.T) {
	cfg := tinyConfig(cluster.RAM, pfs.SyncOn)
	apps := TwoAppSpecs(cfg, 8, 4, tinyWorkload())
	base := Prepare(cfg, apps).Run()
	again := Prepare(cfg, apps).Run()
	if !reflect.DeepEqual(base, again) {
		t.Fatal("fault-free runs are not reproducible")
	}
	if base.Diag.Avail.Crashes != 0 || base.Diag.Avail.Retries != 0 ||
		base.Diag.Avail.DiscardedBytes != 0 || base.Diag.Avail.LinkDrops != 0 {
		t.Fatalf("fault counters nonzero on a fault-free run: %+v", base.Diag.Avail)
	}
}
