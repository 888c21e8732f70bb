// Package obs is the structured-telemetry subsystem of the
// reproduction: typed events describing a federated run (spans for the
// run, its five engine phases, its rounds, per-client calls and their
// attempts; facts without a duration such as drops, chaos injections
// and Bayesian-optimization iterations), recorders that consume them
// (Prometheus metrics, a JSON-lines trace sink), and an opt-in HTTP
// server exposing /metrics, /healthz, and net/http/pprof.
//
// Design contract:
//
//   - A nil Recorder disables telemetry entirely: every instrumentation
//     site guards with `if rec != nil`, so the disabled path allocates
//     nothing (BenchmarkRecorderOverhead pins this).
//   - Recorders are safe for concurrent Record calls — quorum
//     broadcasts emit call and attempt spans from one goroutine per
//     client.
//   - Event payloads are deterministic functions of the run; wall-clock
//     readings appear only in timestamp and duration/latency fields.
//     All wall-clock capture inside this package funnels through
//     NowNanos, the single site allowlisted by fedlint's walltime rule
//     (Config.WalltimeAllowFuncs), so instrumented packages need no
//     per-line suppressions.
package obs

import "time"

// Event is one structured telemetry record. Implementations are plain
// value structs; EventName returns the stable snake_case name used in
// the JSON-lines schema and metric labels.
type Event interface {
	EventName() string
}

// Recorder consumes telemetry events. Implementations must tolerate
// concurrent Record calls. A nil Recorder means telemetry is disabled;
// instrumentation sites check for nil before constructing events so
// the disabled path stays allocation-free.
type Recorder interface {
	Record(ev Event)
}

// NowNanos returns the current wall-clock time in Unix nanoseconds.
// It is the telemetry layer's single sanctioned wall-clock capture
// site: fedlint's walltime rule allowlists this function (and only
// this function) inside the obs package, and walltime-scoped packages
// (core) call NowNanos instead of time.Now so their instrumentation
// needs no per-line suppressions. Values produced here feed timestamp
// and duration fields only — never event identity or run results.
func NowNanos() int64 {
	return time.Now().UnixNano()
}

// Outcome labels an attempt span carries at its end.
const (
	OutcomeOK        = "ok"        // the attempt returned a response
	OutcomeTransient = "transient" // retryable injected/transport fault
	OutcomeTimeout   = "timeout"   // the attempt exceeded its deadline
	OutcomeDead      = "dead"      // the client is permanently gone
	OutcomeError     = "error"     // any other failure
)

// ClientDropped records a client excluded from a quorum round after
// its logical call (including retries) failed.
type ClientDropped struct {
	Kind   string `json:"kind"`
	Client int    `json:"client"`
	Reason string `json:"reason"`
}

// EventName implements Event.
func (ClientDropped) EventName() string { return "client_dropped" }

// BOIteration records one Bayesian-optimization observation: the
// proposed configuration and the aggregated global loss it scored.
type BOIteration struct {
	Index  int     `json:"index"`
	Config string  `json:"config"`
	Loss   float64 `json:"loss"`
}

// EventName implements Event.
func (BOIteration) EventName() string { return "bo_iteration" }

// ClientCache records a client-side feature-matrix cache lookup under
// round protocol v2: a hit serves cached matrices, a miss builds them
// (BuildNS is the construction time; 0 on hits).
type ClientCache struct {
	Client  int    `json:"client"`
	Phase   string `json:"phase"`
	Hit     bool   `json:"hit"`
	BuildNS int64  `json:"build_ns"`
}

// EventName implements Event.
func (ClientCache) EventName() string { return "client_cache" }

// CandidateEval records one candidate fitted by a client inside a
// batched evaluation round.
type CandidateEval struct {
	Client int     `json:"client"`
	Index  int     `json:"index"`
	EvalNS int64   `json:"eval_ns"`
	Loss   float64 `json:"loss"`
}

// EventName implements Event.
func (CandidateEval) EventName() string { return "candidate_eval" }

// ChaosInject records a fault injected by fl.ChaosTransport — the
// observability side of the chaos substrate, so injected faults and
// their observed effects (retries, drops) line up in one trace.
type ChaosInject struct {
	Client int    `json:"client"`
	Fault  string `json:"fault"`
}

// EventName implements Event.
func (ChaosInject) EventName() string { return "chaos_inject" }

// multi fans one event out to several recorders in order.
type multi []Recorder

// Record implements Recorder.
func (m multi) Record(ev Event) {
	for _, r := range m {
		r.Record(ev)
	}
}

// Multi combines recorders into one, dropping nils: zero live
// recorders yield nil (telemetry disabled), a single live recorder is
// returned unwrapped, more are fanned out in argument order.
func Multi(recs ...Recorder) Recorder {
	live := make(multi, 0, len(recs))
	for _, r := range recs {
		if r != nil {
			live = append(live, r)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return live
}
