// Package fedtrace reconstructs and analyzes the causal structure of
// one engine run from its typed telemetry stream: the span forest
// (run → phase → round → per-client call → attempt → client-local
// op), per-phase/per-round/per-client time and byte breakdowns,
// quorum-round critical paths, chaos-aware straggler attribution, and
// the run's waste summary. It consumes only the obs event vocabulary
// — never the engine — so both offline JSONL traces (cmd/fedtrace)
// and live in-process runs (the -report flag's Collector) feed the
// same analysis.
package fedtrace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"

	"fedforecaster/internal/obs"
)

// Collector is an obs.Recorder that retains the event stream in
// memory, for analyzing a run in-process without a trace-file pass.
type Collector struct {
	mu     sync.Mutex
	events []obs.Event // guarded by mu
}

// NewCollector returns an empty in-memory event collector.
func NewCollector() *Collector { return &Collector{} }

// Record implements obs.Recorder.
func (c *Collector) Record(ev obs.Event) {
	c.mu.Lock()
	c.events = append(c.events, ev)
	c.mu.Unlock()
}

// Events returns a snapshot of the collected stream.
func (c *Collector) Events() []obs.Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]obs.Event, len(c.events))
	copy(out, c.events)
	return out
}

// ReadEvents parses a JSONL telemetry stream (the -trace-out format)
// back into typed events, by value as live recorders see them. Unknown
// event names are skipped, so an older analyzer reading a newer trace
// sees the events it knows. Blank lines are tolerated; a malformed
// line is an error (the trace is corrupt, not newer).
func ReadEvents(r io.Reader) ([]obs.Event, error) {
	type envelope struct {
		TS    int64           `json:"ts"`
		Event string          `json:"event"`
		Data  json.RawMessage `json:"data"`
	}
	var out []obs.Event
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var env envelope
		if err := json.Unmarshal(line, &env); err != nil {
			return nil, fmt.Errorf("fedtrace: line %d: %w", lineNo, err)
		}
		ev, err := obs.DecodeEvent(env.Event, env.Data)
		if err != nil {
			return nil, fmt.Errorf("fedtrace: line %d: %w", lineNo, err)
		}
		if ev != nil {
			out = append(out, ev)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("fedtrace: reading trace: %w", err)
	}
	return out, nil
}
