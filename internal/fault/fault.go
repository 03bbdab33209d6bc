// Package fault is the deterministic fault-injection subsystem: a
// schedulable timeline of typed partial-failure events (server crash and
// restart, device degrade and restore, administrative link down/up and
// loss-burst windows) driven off the simulation clock, plus the client-side
// retry policy that makes a platform under faults degrade gracefully
// instead of wedging.
//
// A Plan is pure data — absolute event times and typed parameters — so the
// same plan injected into the same platform produces bit-identical
// simulations: every event is scheduled at setup time, before the
// simulation runs. The package deliberately knows
// nothing about pfs, netsim or storage; the platform assembly layer
// (internal/cluster) binds each event to its target through Hooks.
package fault

import (
	"fmt"

	"repro/internal/sim"
)

// Kind is the type of one fault event.
type Kind int

// Fault event kinds.
const (
	// ServerCrash fail-stops a storage server: in-flight requests die,
	// queued work is dropped, arriving chunks are discarded until restart.
	ServerCrash Kind = iota
	// ServerRestart brings a crashed server back: it re-registers with the
	// flow layer (all slots free) and serves new arrivals.
	ServerRestart
	// DeviceDegrade multiplies the backend device's per-byte service time
	// by Factor and adds Latency per operation (a dying OST).
	DeviceDegrade
	// DeviceRestore returns the device to nominal service.
	DeviceRestore
	// LinkDown administratively downs the server's NIC: data segments,
	// ACKs and replies crossing it are dropped until LinkUp. Senders
	// recover through RTO backoff; requests recover through client retry.
	LinkDown
	// LinkUp restores the link.
	LinkUp
	// LossBurst opens a window of Duration during which every data segment
	// arriving at the server's port is dropped (a deterministic loss
	// burst). ACKs and replies still flow — the partial-loss regime.
	LossBurst
)

var kindNames = [...]string{
	ServerCrash:   "server-crash",
	ServerRestart: "server-restart",
	DeviceDegrade: "device-degrade",
	DeviceRestore: "device-restore",
	LinkDown:      "link-down",
	LinkUp:        "link-up",
	LossBurst:     "loss-burst",
}

func (k Kind) String() string {
	if k >= 0 && int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// KindNames lists the canonical event kind names ParseKind accepts, in
// declaration order.
func KindNames() []string {
	out := make([]string, len(kindNames))
	copy(out, kindNames[:])
	return out
}

// ParseKind converts a kind name to a Kind.
func ParseKind(s string) (Kind, error) {
	for k, n := range kindNames {
		if s == n {
			return Kind(k), nil
		}
	}
	return 0, fmt.Errorf("fault: unknown event kind %q", s)
}

// Event is one scheduled fault: a typed state change of one server's
// stack at an absolute simulated time.
type Event struct {
	// At is the absolute simulation time the event fires.
	At sim.Time
	// Kind selects the state change.
	Kind Kind
	// Server indexes the target server.
	Server int
	// Factor is the DeviceDegrade per-byte service-time multiplier
	// (>= 1; 4 means a byte takes 4x its nominal time).
	Factor float64
	// Latency is the DeviceDegrade extra per-operation latency.
	Latency sim.Time
	// Duration is the LossBurst window length.
	Duration sim.Time
}

// validate checks one event.
func (ev Event) validate(servers int) error {
	if ev.At < 0 {
		return fmt.Errorf("fault: %s at negative time %v", ev.Kind, ev.At)
	}
	if ev.Server < 0 || ev.Server >= servers {
		return fmt.Errorf("fault: %s targets server %d outside [0, %d)", ev.Kind, ev.Server, servers)
	}
	switch ev.Kind {
	case DeviceDegrade:
		if ev.Factor < 1 {
			return fmt.Errorf("fault: device-degrade needs throughput factor >= 1, got %g", ev.Factor)
		}
		if ev.Latency < 0 {
			return fmt.Errorf("fault: device-degrade latency must be >= 0, got %v", ev.Latency)
		}
	case LossBurst:
		if ev.Duration <= 0 {
			return fmt.Errorf("fault: loss-burst needs a positive duration, got %v", ev.Duration)
		}
	case ServerCrash, ServerRestart, DeviceRestore, LinkDown, LinkUp:
		// No parameters.
	default:
		return fmt.Errorf("fault: unknown event kind %d", int(ev.Kind))
	}
	return nil
}

// RetryPolicy is the client-side graceful-degradation contract active
// whenever a fault plan is injected: every sub-request (one server's share
// of a striped request) gets a deadline; expiry triggers capped
// exponential-backoff retry, bounded per request by MaxRetries and per
// application by Budget; exhaustion surfaces ErrUnavailable to the
// application, which stalls Resume and re-issues.
type RetryPolicy struct {
	// Deadline is the per-sub-request reply deadline.
	Deadline sim.Time
	// Backoff is the first retry delay; it doubles per retry up to
	// BackoffMax.
	Backoff    sim.Time
	BackoffMax sim.Time
	// MaxRetries caps retries of one sub-request (0 means no retries: the
	// first deadline expiry already fails the request).
	MaxRetries int
	// Budget is the per-application retry budget across the whole run;
	// <= 0 means unlimited.
	Budget int64
	// Resume is how long an application stalls after ErrUnavailable before
	// re-issuing the failed request.
	Resume sim.Time
}

// DefaultRetryPolicy returns the paper-scale policy: a generous 2 s
// deadline (well above healthy request latencies), 100 ms initial backoff
// capped at 1.6 s, 6 retries per request, 256 retries per application, and
// a 500 ms stall-and-resume pause.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{
		Deadline:   2 * sim.Second,
		Backoff:    100 * sim.Millisecond,
		BackoffMax: 1600 * sim.Millisecond,
		MaxRetries: 6,
		Budget:     256,
		Resume:     500 * sim.Millisecond,
	}
}

// WithDefaults fills zero fields from DefaultRetryPolicy.
func (p RetryPolicy) WithDefaults() RetryPolicy {
	d := DefaultRetryPolicy()
	if p.Deadline <= 0 {
		p.Deadline = d.Deadline
	}
	if p.Backoff <= 0 {
		p.Backoff = d.Backoff
	}
	if p.BackoffMax <= 0 {
		p.BackoffMax = d.BackoffMax
	}
	if p.BackoffMax < p.Backoff {
		p.BackoffMax = p.Backoff
	}
	if p.MaxRetries <= 0 {
		p.MaxRetries = d.MaxRetries
	}
	if p.Budget == 0 {
		p.Budget = d.Budget
	}
	if p.Resume <= 0 {
		p.Resume = d.Resume
	}
	return p
}

// Validate checks the policy.
func (p RetryPolicy) Validate() error {
	switch {
	case p.Deadline < 0 || p.Backoff < 0 || p.BackoffMax < 0 || p.Resume < 0:
		return fmt.Errorf("fault: retry times must be >= 0")
	case p.MaxRetries < 0:
		return fmt.Errorf("fault: MaxRetries must be >= 0")
	case p.MaxRetries > 1000:
		return fmt.Errorf("fault: MaxRetries %d is unreasonable (max 1000)", p.MaxRetries)
	}
	return nil
}

// Plan is a deterministic fault timeline plus the client retry policy that
// accompanies it. The zero-value plan (no events) still activates the retry
// layer — deadlines are armed but never fire on a healthy platform.
type Plan struct {
	Events []Event
	Retry  RetryPolicy
}

// Validate checks every event against the platform's server count and the
// retry policy, and that crash/link faults eventually clear (a server that
// crashes must restart, a downed link must come back up — otherwise
// applications retrying against it can never complete and the simulation
// would wedge by construction, not by bug).
func (p *Plan) Validate(servers int) error {
	if err := p.Retry.Validate(); err != nil {
		return err
	}
	down := make(map[int]sim.Time)
	linkDown := make(map[int]sim.Time)
	for i, ev := range p.Events {
		if err := ev.validate(servers); err != nil {
			return fmt.Errorf("%v (event %d)", err, i)
		}
		switch ev.Kind {
		case ServerCrash:
			down[ev.Server] = ev.At
		case ServerRestart:
			delete(down, ev.Server)
		case LinkDown:
			linkDown[ev.Server] = ev.At
		case LinkUp:
			delete(linkDown, ev.Server)
		}
	}
	for srv := range down {
		return fmt.Errorf("fault: server %d crashes but never restarts", srv)
	}
	for srv := range linkDown {
		return fmt.Errorf("fault: server %d link goes down but never comes back up", srv)
	}
	return nil
}

// Hooks binds one server's fault surface: the server's engine and the
// callbacks the injector fires there. Any nil
// callback makes the corresponding event kinds a no-op for that server.
type Hooks struct {
	E         *sim.Engine
	Crash     func()
	Restart   func()
	Degrade   func(factor float64, latency sim.Time)
	Restore   func()
	SetLink   func(down bool)
	LossBurst func(d sim.Time)
}

// Schedule installs every event of the plan on its target server's engine.
// It must be called at setup time (before the simulation runs): each event
// is then an ordinary event ordered like any other setup-scheduled event,
// which is what makes fault timelines reproduce bit-for-bit.
func Schedule(p *Plan, servers []Hooks) {
	for _, ev := range p.Events {
		h := servers[ev.Server]
		ev := ev
		switch ev.Kind {
		case ServerCrash:
			if h.Crash != nil {
				h.E.At(ev.At, h.Crash)
			}
		case ServerRestart:
			if h.Restart != nil {
				h.E.At(ev.At, h.Restart)
			}
		case DeviceDegrade:
			if h.Degrade != nil {
				h.E.At(ev.At, func() { h.Degrade(ev.Factor, ev.Latency) })
			}
		case DeviceRestore:
			if h.Restore != nil {
				h.E.At(ev.At, h.Restore)
			}
		case LinkDown:
			if h.SetLink != nil {
				h.E.At(ev.At, func() { h.SetLink(true) })
			}
		case LinkUp:
			if h.SetLink != nil {
				h.E.At(ev.At, func() { h.SetLink(false) })
			}
		case LossBurst:
			if h.LossBurst != nil {
				h.E.At(ev.At, func() { h.LossBurst(ev.Duration) })
			}
		}
	}
}
