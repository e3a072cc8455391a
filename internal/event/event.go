// Package event defines the structured event stream the tuning engine emits:
// a Recorder interface plus one typed event per observable fact of a run —
// run lifecycle, optimiser iterations, batch evaluations, per-step T_k,
// convergence certificates, injected faults, and harmony session lifecycle.
//
// Events carry *virtual* time only (simulated seconds, step indices,
// iteration counters). No event holds wall-clock state, so a fixed-seed run
// emits a byte-identical stream on every invocation — the property the
// golden-trace tests pin and the paralint determinism analyzer enforces for
// this package.
package event

import "strconv"

// Event is one structured tuning event. Implementations are plain data; the
// kind tag is stable and used in serialised streams. Event is sealed: only
// the types declared in this package implement it, so every emitted value is
// a kind the trace format and its decoders know.
type Event interface {
	// EventKind returns the stable kind tag ("run_start", "iteration", ...).
	EventKind() string
	sealed()
}

// Event kind tags, one per typed event.
const (
	KindRunStart   = "run_start"
	KindRunEnd     = "run_end"
	KindIteration  = "iteration"
	KindBatch      = "batch"
	KindStepTime   = "step_time"
	KindConverged  = "converged"
	KindFault      = "fault"
	KindSession    = "session"
	KindDBHit      = "db_hit"
	KindDBMiss     = "db_miss"
	KindDBSnapshot = "db_snapshot"

	KindChaosPlan    = "chaos_plan"
	KindChaosApplied = "chaos_applied"
	KindChaosKill    = "chaos_kill"

	KindBatchFetch  = "batch_fetch"
	KindBatchReport = "batch_report"

	KindSyncStart    = "sync_start"
	KindSyncSegments = "sync_segments"
	KindSyncComplete = "sync_complete"
)

// RunStart opens one tuning run.
type RunStart struct {
	// Mode is "sync" (barrier-stepped) or "async" (free-running clocks).
	Mode string `json:"mode"`
	// Algorithm is the optimiser's String() name.
	Algorithm string `json:"algorithm"`
	// Processors is the simulated cluster width, when known.
	Processors int `json:"processors,omitempty"`
	// Budget is the step budget K (sync runs).
	Budget int `json:"budget,omitempty"`
	// TimeBudget is the virtual wall-clock budget in seconds (async runs).
	TimeBudget float64 `json:"time_budget,omitempty"`
}

// EventKind implements Event.
func (RunStart) EventKind() string { return KindRunStart }

// RunEnd closes one tuning run with its headline metrics.
type RunEnd struct {
	Mode string `json:"mode"`
	// Best is the configuration in use at the end of the run.
	Best []float64 `json:"best,omitempty"`
	// BestValue is the optimiser's estimate for Best.
	BestValue float64 `json:"best_value"`
	// TrueValue is the noise-free cost of Best.
	TrueValue float64 `json:"true_value"`
	// Iterations counts optimiser Step calls the driver made.
	Iterations int `json:"iterations"`
	// TotalTime is Total_Time(K) (sync runs).
	TotalTime float64 `json:"total_time,omitempty"`
	// NTT is the Normalized Total Time (sync runs).
	NTT float64 `json:"ntt,omitempty"`
	// VTime is the virtual time consumed by the whole run.
	VTime float64 `json:"vtime"`
}

// EventKind implements Event.
func (RunEnd) EventKind() string { return KindRunEnd }

// Iteration reports one optimiser iteration (iter 0 is the initial simplex
// evaluation).
type Iteration struct {
	// Session names the harmony session driving the optimiser, if any.
	Session string `json:"session,omitempty"`
	// Iter is the driver's Step-call counter; 0 for Init.
	Iter int `json:"iter"`
	// Step is the StepKind the iteration accepted ("reflect", "shrink", ...).
	Step string `json:"step"`
	// Best is the best configuration after the iteration.
	Best []float64 `json:"best,omitempty"`
	// BestValue is the estimate for Best.
	BestValue float64 `json:"best_value"`
	// Evals is the number of point evaluations the iteration requested.
	Evals int `json:"evals,omitempty"`
	// VTime is the virtual time consumed so far.
	VTime float64 `json:"vtime"`
}

// EventKind implements Event.
func (Iteration) EventKind() string { return KindIteration }

// BatchEvaluated reports one evaluator batch: a set of candidate points
// measured together.
type BatchEvaluated struct {
	// Points is the number of candidates in the batch.
	Points int `json:"points"`
	// VTime is the virtual time after the batch completed.
	VTime float64 `json:"vtime"`
}

// EventKind implements Event.
func (BatchEvaluated) EventKind() string { return KindBatch }

// StepTime reports one barrier-gated time step's cost T_k (Eq. 1). The
// stream of these events is exactly the trace cmd/traceanalyze consumes.
type StepTime struct {
	// Step is the 1-based time step index k.
	Step int `json:"step"`
	// T is T_k, the worst per-processor time of the step.
	T float64 `json:"t"`
}

// EventKind implements Event.
func (StepTime) EventKind() string { return KindStepTime }

// Converged reports a §3.2.2-style convergence certificate.
type Converged struct {
	// Session names the harmony session, if any.
	Session string `json:"session,omitempty"`
	// Iter is the driver iteration that certified convergence.
	Iter int `json:"iter"`
	// Step is the simulator time step at certification (sync runs).
	Step int `json:"step,omitempty"`
	// VTime is the virtual time at certification.
	VTime float64 `json:"vtime"`
}

// EventKind implements Event.
func (Converged) EventKind() string { return KindConverged }

// FaultInjected mirrors one fault.Injector outcome into the stream.
type FaultInjected struct {
	// Fault is the fault kind name ("crash", "straggler", "drop", "corrupt").
	Fault string `json:"fault"`
	// Proc is the processor (or client id) the fault hit; -1 when unknown.
	Proc int `json:"proc"`
	// Tag is the measurement tag, when the call site has one.
	Tag uint64 `json:"tag,omitempty"`
	// Factor is the straggler delay multiplier (straggler only).
	Factor float64 `json:"factor,omitempty"`
	// Value is the injected garbage report, formatted with FormatValue so
	// NaN/±Inf survive JSON encoding (corrupt only).
	Value string `json:"value,omitempty"`
	// Detail carries free-form context for pipeline faults that are observed
	// rather than injected (e.g. the truncation offset of a corrupt WAL tail).
	Detail string `json:"detail,omitempty"`
}

// EventKind implements Event.
func (FaultInjected) EventKind() string { return KindFault }

// Session reports a harmony session lifecycle transition.
type Session struct {
	// Session is the session name.
	Session string `json:"session"`
	// Phase is the transition: "registered", "restored", "batch_proposed",
	// "batch_complete", "batch_degraded", "converged", "stopped", "expired".
	Phase string `json:"phase"`
	// Detail carries free-form context (e.g. candidate counts).
	Detail string `json:"detail,omitempty"`
}

// EventKind implements Event.
func (Session) EventKind() string { return KindSession }

// DBHit reports one evaluation served from the measurement database instead
// of the cluster: the configuration's min-of-K was already resolved, so no
// simulator steps (or client measurements) were spent on it.
type DBHit struct {
	// Session names the harmony session, if any.
	Session string `json:"session,omitempty"`
	// Config is the configuration's canonical key (Point.Key()).
	Config string `json:"config"`
	// Value is the estimate served from the store.
	Value float64 `json:"value"`
	// Count is the number of stored observations backing the estimate.
	Count int `json:"count"`
	// Source is "federated" when any backing observation was first recorded
	// by a different store and reached this one through sync or merge;
	// empty (omitted) for purely local hits, keeping single-node traces
	// unchanged.
	Source string `json:"source,omitempty"`
	// VTime is the virtual time at the lookup, when the caller has a clock.
	VTime float64 `json:"vtime,omitempty"`
}

// EventKind implements Event.
func (DBHit) EventKind() string { return KindDBHit }

// DBMiss reports a configuration the measurement database could not resolve:
// it must be measured on the cluster (and its raw observations recorded).
type DBMiss struct {
	// Session names the harmony session, if any.
	Session string `json:"session,omitempty"`
	// Config is the configuration's canonical key (Point.Key()).
	Config string `json:"config"`
	// Count is the number of observations stored so far (fewer than K).
	Count int `json:"count"`
	// VTime is the virtual time at the lookup, when the caller has a clock.
	VTime float64 `json:"vtime,omitempty"`
}

// EventKind implements Event.
func (DBMiss) EventKind() string { return KindDBMiss }

// DBSnapshot reports one measurement-database snapshot/compaction: the
// aggregate state was written to the snapshot file and the WAL truncated.
type DBSnapshot struct {
	// Configs is the number of distinct configurations persisted.
	Configs int `json:"configs"`
	// Observations is the total raw measurement count persisted.
	Observations int `json:"observations"`
}

// EventKind implements Event.
func (DBSnapshot) EventKind() string { return KindDBSnapshot }

// ChaosPlan is one planned wire-level fault in a chaos schedule. The whole
// schedule is drawn from the chaos seed at proxy construction and emitted
// before any traffic flows, so the chaos_plan stream of a run is a pure
// function of (seed, config) — two same-seed runs emit byte-identical plan
// traces. Frames are counted per link and direction; no field carries wall
// clock (the planned delay is a drawn constant, not a timestamp).
type ChaosPlan struct {
	// Link is the proxy's connection ordinal the fault is scheduled on.
	Link int `json:"link"`
	// Dir is the frame direction: "c2s" (client to server) or "s2c".
	Dir string `json:"dir"`
	// Frame is the 0-based frame index within the link/direction the action
	// fires on.
	Frame int `json:"frame"`
	// Action names the fault: "delay", "drop", "dup", "truncate", "reset".
	Action string `json:"action"`
	// DelayMS is the planned hold time in milliseconds (delay only).
	DelayMS float64 `json:"delay_ms,omitempty"`
	// Bytes is the forwarded prefix length before the link dies (truncate
	// only).
	Bytes int `json:"bytes,omitempty"`
}

// EventKind implements Event.
func (ChaosPlan) EventKind() string { return KindChaosPlan }

// ChaosApplied reports a scheduled fault the proxy actually executed. Unlike
// the plan stream this depends on how much traffic really flowed, so it is
// observability data, not part of the byte-identity contract.
type ChaosApplied struct {
	Link   int    `json:"link"`
	Dir    string `json:"dir"`
	Frame  int    `json:"frame"`
	Action string `json:"action"`
}

// EventKind implements Event.
func (ChaosApplied) EventKind() string { return KindChaosApplied }

// ChaosKill is one planned (or, with Applied set, executed) mid-session
// server kill: the backend is torn down abruptly after the proxy has
// forwarded AfterFrames client frames in total, stays down for DownMS, and
// is restarted from its checkpoint and measurement-database WAL.
type ChaosKill struct {
	// Seq is the kill ordinal within the schedule.
	Seq int `json:"seq"`
	// AfterFrames is the total forwarded client-frame count that triggers it.
	AfterFrames int `json:"after_frames"`
	// DownMS is the planned downtime before restart, in milliseconds.
	DownMS float64 `json:"down_ms,omitempty"`
	// Applied marks an executed kill (live stream) as opposed to a planned
	// one (plan stream).
	Applied bool `json:"applied,omitempty"`
}

// EventKind implements Event.
func (ChaosKill) EventKind() string { return KindChaosKill }

// BatchFetch reports one batched fetchN round-trip: a client asked for up to
// Requested samples in a single frame and was granted Granted of them. A
// candidate appears once per sample it still needs, pass-major around the
// session's outstanding candidates, so one frame can carry every
// measurement a batch needs.
type BatchFetch struct {
	// Session is the session name.
	Session string `json:"session"`
	// Requested is the sample count the client asked for.
	Requested int `json:"requested"`
	// Granted is how many tagged samples were handed out; 0 means no
	// candidate awaits a measurement and the client got the best-known
	// configuration instead.
	Granted int `json:"granted"`
}

// EventKind implements Event.
func (BatchFetch) EventKind() string { return KindBatchFetch }

// BatchReport reports one batched reportN round-trip: Items measurements in
// a single frame, of which Accepted the session took, Rejected were invalid
// or named tags never issued, and Refused lay past the per-frame item cap.
type BatchReport struct {
	// Session is the session name.
	Session string `json:"session"`
	// Items is the number of measurements the frame carried.
	Items int `json:"items"`
	// Accepted is how many the session took: measurements that filled a
	// sample slot or were surplus for a filled one, plus resends of a slot's
	// value and reports for a retired batch's tags, which record nothing but
	// count as accepted because the client's retry succeeded.
	Accepted int `json:"accepted"`
	// Rejected is how many were invalid values or tags never issued.
	Rejected int `json:"rejected,omitempty"`
	// Refused is how many lay past the per-frame item cap and were not
	// applied.
	Refused int `json:"refused,omitempty"`
}

// EventKind implements Event.
func (BatchReport) EventKind() string { return KindBatchReport }

// SyncStart opens one anti-entropy round against a peer, after the digest
// exchange has established how far apart the two stores are. Sync timing
// depends on real network traffic, so sync events are observability data,
// not part of the single-node byte-identity contract (which federation never
// touches: the local WAL is append-only and never reordered).
type SyncStart struct {
	// Peer is the remote address (or a test-supplied label).
	Peer string `json:"peer"`
	// PullLag is the total frame count the peer holds that we don't.
	PullLag uint64 `json:"pull_lag"`
	// PushLag is the total frame count we hold that the peer doesn't.
	PushLag uint64 `json:"push_lag"`
	// Origins is how many distinct origins the two digests mention.
	Origins int `json:"origins"`
}

// EventKind implements Event.
func (SyncStart) EventKind() string { return KindSyncStart }

// SyncSegments reports one shipped WAL segment: a contiguous run of one
// origin's frames pulled from (or pushed to) a peer.
type SyncSegments struct {
	// Peer is the remote address.
	Peer string `json:"peer"`
	// Origin is the history the frames belong to.
	Origin string `json:"origin"`
	// Dir is "pull" (peer → local) or "push" (local → peer).
	Dir string `json:"dir"`
	// From is the first sequence in the segment.
	From uint64 `json:"from"`
	// Frames is how many frames the segment carried.
	Frames int `json:"frames"`
	// Duplicates is how many of them the receiver already held.
	Duplicates int `json:"duplicates,omitempty"`
}

// EventKind implements Event.
func (SyncSegments) EventKind() string { return KindSyncSegments }

// SyncComplete closes one anti-entropy round. A converged pair reports 0/0:
// repeated rounds ship nothing (idempotence).
type SyncComplete struct {
	// Peer is the remote address.
	Peer string `json:"peer"`
	// Pulled is how many frames were applied locally this round.
	Pulled int `json:"pulled"`
	// Pushed is how many frames the peer applied from us.
	Pushed int `json:"pushed"`
	// Duplicates counts frames shipped in either direction that the
	// receiver already held.
	Duplicates int `json:"duplicates,omitempty"`
}

// EventKind implements Event.
func (SyncComplete) EventKind() string { return KindSyncComplete }

// FormatValue renders a float for an event payload. Unlike raw JSON numbers
// it survives NaN and ±Inf, which injected corrupt reports deliberately use.
func FormatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// sealed implements Event for each kind declared above.
func (RunStart) sealed()       {}
func (RunEnd) sealed()         {}
func (Iteration) sealed()      {}
func (BatchEvaluated) sealed() {}
func (StepTime) sealed()       {}
func (Converged) sealed()      {}
func (FaultInjected) sealed()  {}
func (Session) sealed()        {}
func (DBHit) sealed()          {}
func (DBMiss) sealed()         {}
func (DBSnapshot) sealed()     {}
func (ChaosPlan) sealed()      {}
func (ChaosApplied) sealed()   {}
func (ChaosKill) sealed()      {}
func (BatchFetch) sealed()     {}
func (BatchReport) sealed()    {}
func (SyncStart) sealed()      {}
func (SyncSegments) sealed()   {}
func (SyncComplete) sealed()   {}
