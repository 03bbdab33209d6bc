package pfs

import "repro/internal/sim"

// Span is the life of one request's share on one server, decomposed into
// the stages where interference can hide: the client issues at Issue, the
// first chunk is fully buffered at the server at Arrive (everything in
// between is network — transmission, NIC sharing, incast backoff), the
// request wins a flow slot at Grant (Arrive..Grant is server queue-wait,
// the flow-slot arbitration a QoS scheduler shapes), and the reply leaves
// at Reply (Grant..Reply is service: CPU, device, and the self-clocked
// remainder of the transfer). Requests killed by a server crash never
// reach Reply and emit no span; the client retry layer's fresh attempt
// does.
type Span struct {
	Issue  sim.Time
	Arrive sim.Time
	Grant  sim.Time
	Reply  sim.Time
	// Bytes is the request's data share on this server.
	Bytes int64
	// App and Server identify the flow.
	App    int32
	Server int32
	// Read marks a read request (data flows on the reply direction).
	Read bool
}

// Net is the issue-to-arrival stage: wire transmission plus everything the
// network layer did to the first chunk (NIC sharing, port drops, RTOs).
func (s Span) Net() sim.Time { return s.Arrive - s.Issue }

// Queue is the arrival-to-grant stage: time spent waiting for a flow slot.
func (s Span) Queue() sim.Time { return s.Grant - s.Arrive }

// Service is the grant-to-reply stage: CPU, device and the remaining
// (self-clocked) chunks of the transfer.
func (s Span) Service() sim.Time { return s.Reply - s.Grant }

// Total is the whole issue-to-reply latency of this server's share.
func (s Span) Total() sim.Time { return s.Reply - s.Issue }

// SpanSink receives one Span per completed request share, emitted at reply
// time. Implementations must be cheap and
// allocation-free: the hook sits on the per-request completion path (see
// internal/obs for the fixed-capacity collector). A nil Server.Spans (the
// default) keeps the path span-free.
type SpanSink interface {
	RecordSpan(sp Span)
}
