package fedtrace

import (
	"fmt"
	"sort"

	"fedforecaster/internal/obs"
)

// Report is the analyzed view of one engine run: the reconstructed
// span forest plus time/byte breakdowns, per-round critical paths, and
// straggler attribution. All aggregate fields serialize to JSON for
// machine consumers (the CI trace-smoke gate); the forest itself is
// reachable via Forest for the waterfall and structure renderers.
type Report struct {
	TraceID       string        `json:"trace_id,omitempty"`
	RunDurationNS int64         `json:"run_duration_ns"`
	RunErr        string        `json:"run_err,omitempty"`
	Phases        []Phase       `json:"phases"`
	Rounds        []Round       `json:"rounds"`
	Clients       []ClientStats `json:"clients"`
	// Stragglers ranks clients that appeared on at least one round's
	// critical path: most critical rounds first, then most critical
	// time, then lowest client id.
	Stragglers []Straggler `json:"stragglers"`
	Waste      *Waste      `json:"waste,omitempty"`

	Forest []*obs.SpanNode `json:"-"`
}

// Phase aggregates one engine phase.
type Phase struct {
	Name       string `json:"name"`
	DurationNS int64  `json:"duration_ns"`
	Rounds     int    `json:"rounds"`
	Attempts   int    `json:"attempts"`
	Bytes      int64  `json:"bytes"`
	Err        string `json:"err,omitempty"`
}

// Round aggregates one federated protocol round and its critical path
// — the slowest surviving client chain, which bounds the round's
// barrier time.
type Round struct {
	Index      int    `json:"index"`
	Phase      string `json:"phase"`
	Kind       string `json:"kind"`
	Batch      int    `json:"batch,omitempty"`
	Clients    int    `json:"clients"`
	Survivors  int    `json:"survivors"`
	Attempts   int    `json:"attempts"`
	DurationNS int64  `json:"duration_ns"`
	Bytes      int64  `json:"bytes"`
	Err        string `json:"err,omitempty"`
	// CriticalClient is -1 when the round span holds no call spans.
	CriticalClient int      `json:"critical_client"`
	CriticalNS     int64    `json:"critical_ns"`
	CriticalShare  float64  `json:"critical_share"`
	CriticalPath   []string `json:"critical_path,omitempty"`
}

// ClientStats aggregates one client across the run.
type ClientStats struct {
	Client   int   `json:"client"`
	Calls    int   `json:"calls"` // successful logical calls
	Attempts int   `json:"attempts"`
	Retries  int   `json:"retries"`
	Drops    int   `json:"drops"`
	Bytes    int64 `json:"bytes"`
	// BusyNS is server-observed wall time inside this client's call
	// spans; ComputeNS is the client's own shipped op timings (the
	// gap between them is transport + chaos overhead).
	BusyNS    int64 `json:"busy_ns"`
	ComputeNS int64 `json:"compute_ns"`
	// CriticalRounds counts rounds where this client's chain was the
	// round's critical path.
	CriticalRounds int            `json:"critical_rounds"`
	CriticalNS     int64          `json:"critical_ns"`
	Chaos          map[string]int `json:"chaos,omitempty"`
}

// Straggler is one entry of the critical-path attribution ranking.
type Straggler struct {
	Client         int `json:"client"`
	CriticalRounds int `json:"critical_rounds"`
	// CriticalShare is this client's critical time over the sum of
	// all round durations.
	CriticalShare float64        `json:"critical_share"`
	Chaos         map[string]int `json:"chaos,omitempty"`
}

// Waste mirrors the run's comms_summary event.
type Waste struct {
	Rounds      int   `json:"rounds"`
	Calls       int   `json:"calls"`
	BytesDown   int64 `json:"bytes_down"`
	BytesUp     int64 `json:"bytes_up"`
	WastedCalls int   `json:"wasted_calls"`
	WastedBytes int64 `json:"wasted_bytes"`
}

// Analyze reconstructs the span forest and computes the report from
// it: each run span's phases, the rounds under each phase, the call
// and attempt spans under each round. Drops, chaos injections and the
// waste summary are facts without a duration and come from their own
// events. The error result is always nil — a forest is analyzable
// however partial — and stays so existing callers need not change.
func Analyze(events []obs.Event) (*Report, error) {
	r := &Report{Forest: obs.BuildSpanForest(events)}

	clients := map[int]*ClientStats{}
	client := func(id int) *ClientStats {
		cs, ok := clients[id]
		if !ok {
			cs = &ClientStats{Client: id}
			clients[id] = cs
		}
		return cs
	}

	for _, ev := range events {
		switch ev := ev.(type) {
		case obs.ClientDropped:
			client(ev.Client).Drops++
		case obs.ChaosInject:
			cs := client(ev.Client)
			if cs.Chaos == nil {
				cs.Chaos = map[string]int{}
			}
			cs.Chaos[ev.Fault]++
		case obs.CommsSummary:
			r.Waste = &Waste{
				Rounds:      ev.Rounds,
				Calls:       ev.Calls,
				BytesDown:   ev.BytesDown,
				BytesUp:     ev.BytesUp,
				WastedCalls: ev.WastedCalls,
				WastedBytes: ev.WastedBytes,
			}
		}
	}

	// Walk the forest: run root → phase spans → round spans → call
	// spans → attempt spans. Siblings are ordered by their
	// deterministic sequence numbers, and round spans carry a run-global
	// one, so the walk visits rounds in the order they ran.
	for _, root := range r.Forest {
		if root.Kind != obs.SpanRun {
			continue
		}
		r.TraceID = obs.HexID(root.Trace)
		r.RunDurationNS = root.DurationNS()
		r.RunErr = root.Err
		for _, phSpan := range root.Children {
			if phSpan.Kind != obs.SpanPhase {
				continue
			}
			ph := Phase{Name: phSpan.Name, DurationNS: phSpan.DurationNS(), Err: phSpan.Err}
			for _, span := range phSpan.Children {
				if span.Kind != obs.SpanRound {
					continue
				}
				rd := Round{
					Index:          len(r.Rounds),
					Phase:          ph.Name,
					Kind:           span.Name,
					Batch:          span.Batch,
					Clients:        span.Clients,
					Survivors:      span.Survivors,
					DurationNS:     span.DurationNS(),
					Err:            span.Err,
					CriticalClient: -1,
				}
				for _, call := range span.Children {
					if call.Kind != obs.SpanCall {
						continue
					}
					cs := client(call.Client)
					cs.BusyNS += call.DurationNS()
					for _, att := range call.Children {
						if att.Kind != obs.SpanAttempt {
							continue
						}
						cs.Attempts++
						cs.Bytes += att.Bytes
						if att.Outcome == obs.OutcomeOK {
							cs.Calls++
						}
						if att.Seq > 1 {
							cs.Retries++
						}
						rd.Attempts++
						rd.Bytes += att.Bytes
						for _, op := range att.Children {
							if op.Kind == obs.SpanClient {
								client(op.Client).ComputeNS += op.DurationNS()
							}
						}
					}
				}
				attributeCriticalPath(&rd, span)
				if rd.CriticalClient >= 0 {
					cs := client(rd.CriticalClient)
					cs.CriticalRounds++
					cs.CriticalNS += rd.CriticalNS
				}
				ph.Rounds++
				ph.Attempts += rd.Attempts
				ph.Bytes += rd.Bytes
				r.Rounds = append(r.Rounds, rd)
			}
			r.Phases = append(r.Phases, ph)
		}
	}

	for _, cs := range clients {
		r.Clients = append(r.Clients, *cs)
	}
	sort.Slice(r.Clients, func(i, j int) bool { return r.Clients[i].Client < r.Clients[j].Client })

	var totalRoundNS int64
	for i := range r.Rounds {
		totalRoundNS += r.Rounds[i].DurationNS
	}
	for _, cs := range r.Clients {
		if cs.CriticalRounds == 0 {
			continue
		}
		s := Straggler{Client: cs.Client, CriticalRounds: cs.CriticalRounds, Chaos: cs.Chaos}
		if totalRoundNS > 0 {
			s.CriticalShare = float64(cs.CriticalNS) / float64(totalRoundNS)
		}
		r.Stragglers = append(r.Stragglers, s)
	}
	sort.Slice(r.Stragglers, func(i, j int) bool {
		a, b := r.Stragglers[i], r.Stragglers[j]
		if a.CriticalRounds != b.CriticalRounds {
			return a.CriticalRounds > b.CriticalRounds
		}
		if a.CriticalShare > b.CriticalShare {
			return true
		}
		if a.CriticalShare < b.CriticalShare {
			return false
		}
		return a.Client < b.Client
	})
	return r, nil
}

// attributeCriticalPath finds the round's critical chain: the slowest
// call span among survivors (every call, including failed retries, is
// inside the round's barrier — but a failed chain that loses the race
// to a slower survivor is not what the quorum waited for). If no call
// survived, the slowest failure is the critical chain. Ties break
// toward the lower client id so attribution is deterministic.
func attributeCriticalPath(rd *Round, span *obs.SpanNode) {
	var crit *obs.SpanNode
	better := func(a, b *obs.SpanNode) bool {
		if b == nil {
			return true
		}
		if d1, d2 := a.DurationNS(), b.DurationNS(); d1 != d2 {
			return d1 > d2
		}
		return a.Client < b.Client
	}
	for _, call := range span.Children {
		if call.Kind == obs.SpanCall && call.Err == "" && better(call, crit) {
			crit = call
		}
	}
	if crit == nil {
		for _, call := range span.Children {
			if call.Kind == obs.SpanCall && better(call, crit) {
				crit = call
			}
		}
	}
	if crit == nil {
		return
	}
	rd.CriticalClient = crit.Client
	rd.CriticalNS = crit.DurationNS()
	if rd.DurationNS > 0 {
		rd.CriticalShare = float64(rd.CriticalNS) / float64(rd.DurationNS)
	}
	rd.CriticalPath = []string{fmt.Sprintf("client %d", crit.Client)}
	// The delivering attempt is the last one; the dominant client op
	// inside it closes the chain.
	if n := len(crit.Children); n > 0 {
		att := crit.Children[n-1]
		rd.CriticalPath = append(rd.CriticalPath, fmt.Sprintf("attempt %d", att.Seq))
		var op *obs.SpanNode
		for _, o := range att.Children {
			if o.Kind != obs.SpanClient {
				continue
			}
			if op == nil || o.DurationNS() > op.DurationNS() {
				op = o
			}
		}
		if op != nil {
			rd.CriticalPath = append(rd.CriticalPath, op.Name)
		}
	}
}
