package obs

import (
	"strings"
	"sync"
	"testing"
)

// captureRecorder collects events under a mutex for assertions.
type captureRecorder struct {
	mu     sync.Mutex
	events []Event
}

func (c *captureRecorder) Record(ev Event) {
	c.mu.Lock()
	c.events = append(c.events, ev)
	c.mu.Unlock()
}

func (c *captureRecorder) names() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, len(c.events))
	for i, ev := range c.events {
		out[i] = ev.EventName()
	}
	return out
}

func TestMultiDropsNils(t *testing.T) {
	if got := Multi(); got != nil {
		t.Errorf("Multi() = %v, want nil", got)
	}
	if got := Multi(nil, nil); got != nil {
		t.Errorf("Multi(nil, nil) = %v, want nil", got)
	}
	a := &captureRecorder{}
	if got := Multi(nil, a, nil); got != Recorder(a) {
		t.Errorf("Multi with one live recorder should return it unwrapped, got %T", got)
	}
	b := &captureRecorder{}
	fan := Multi(a, nil, b)
	fan.Record(BOIteration{Index: 0})
	if len(a.names()) != 1 || len(b.names()) != 1 {
		t.Errorf("fan-out delivered a=%d b=%d events, want 1 each", len(a.names()), len(b.names()))
	}
}

func TestEventNamesAreStableSnakeCase(t *testing.T) {
	events := map[Event]string{
		ClientDropped{}: "client_dropped",
		BOIteration{}:   "bo_iteration",
		ClientCache{}:   "client_cache",
		CandidateEval{}: "candidate_eval",
		ChaosInject{}:   "chaos_inject",
		SpanStart{}:     "span_start",
		SpanEnd{}:       "span_end",
		CommsSummary{}:  "comms_summary",
	}
	for ev, want := range events {
		if got := ev.EventName(); got != want {
			t.Errorf("%T.EventName() = %q, want %q", ev, got, want)
		}
	}
}

func TestMetricsAggregation(t *testing.T) {
	m := NewMetrics()
	m.Record(SpanStart{Kind: SpanRun, Name: SpanRun, Client: -1})
	if m.ActiveRuns() != 1 {
		t.Errorf("ActiveRuns = %d after the run span opened, want 1", m.ActiveRuns())
	}
	m.Record(SpanStart{Kind: SpanRound, Name: "metafeatures", Client: -1, Clients: 3})
	m.Record(SpanEnd{Kind: SpanRound, Name: "metafeatures", Client: -1, Survivors: 3, DurationNS: 2_000_000})
	m.Record(SpanStart{Kind: SpanRound, Name: "eval/config", Client: -1, Batch: 2, Clients: 3})
	m.Record(SpanEnd{Kind: SpanRound, Name: "eval/config", Client: -1, DurationNS: 5_000_000, Err: "fl: quorum not met"})
	m.Record(SpanStart{Kind: SpanAttempt, Name: SpanAttempt, Seq: 1, Client: 0})
	m.Record(SpanEnd{Kind: SpanAttempt, Name: SpanAttempt, Client: 0, DurationNS: 800_000, Bytes: 64, Outcome: OutcomeOK})
	m.Record(SpanStart{Kind: SpanAttempt, Name: SpanAttempt, Seq: 1, Client: 1})
	m.Record(SpanEnd{Kind: SpanAttempt, Name: SpanAttempt, Client: 1, DurationNS: 400_000, Bytes: 64, Outcome: OutcomeTransient})
	m.Record(SpanStart{Kind: SpanAttempt, Name: SpanAttempt, Seq: 2, Client: 1})
	m.Record(SpanEnd{Kind: SpanAttempt, Name: SpanAttempt, Client: 1, DurationNS: 300_000, Bytes: 128, Outcome: OutcomeOK})
	// A call span ends around its attempts; it counts nothing itself.
	m.Record(SpanEnd{Kind: SpanCall, Name: SpanCall, Client: 1, DurationNS: 750_000})
	m.Record(SpanEnd{Kind: SpanPhase, Name: "optimize", Client: -1, DurationNS: 7_000_000})
	m.Record(ClientDropped{Kind: "eval/config", Client: 2, Reason: "dead"})
	m.Record(ClientCache{Client: 0, Phase: "valid", Hit: false, BuildNS: 1000})
	m.Record(ClientCache{Client: 0, Phase: "valid", Hit: true})
	m.Record(CandidateEval{Client: 0, Index: 1, EvalNS: 5000, Loss: 0.25})
	m.Record(BOIteration{Index: 0, Config: "Lasso{}", Loss: 0.5})
	m.Record(ChaosInject{Client: 1, Fault: "transient"})
	m.Record(SpanEnd{Kind: SpanRun, Name: SpanRun, Client: -1, DurationNS: 9_000_000})

	if m.ActiveRuns() != 0 {
		t.Errorf("ActiveRuns = %d after the run span closed, want 0", m.ActiveRuns())
	}
	if m.LastActivityNanos() == 0 {
		t.Error("LastActivityNanos = 0, want a refreshed liveness timestamp")
	}

	var b strings.Builder
	if err := m.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"fedforecaster_runs_started_total 1",
		"fedforecaster_runs_ended_total 1",
		"fedforecaster_runs_active 0",
		"fedforecaster_bo_iterations_total 1",
		`fedforecaster_rounds_started_total{kind="eval/config"} 1`,
		`fedforecaster_rounds_completed_total{kind="metafeatures"} 1`,
		`fedforecaster_rounds_failed_total{kind="eval/config"} 1`,
		`fedforecaster_round_survivors_total{kind="metafeatures"} 3`,
		`fedforecaster_client_calls_total{client="0",outcome="ok"} 1`,
		`fedforecaster_client_calls_total{client="1",outcome="transient"} 1`,
		`fedforecaster_client_calls_total{client="1",outcome="ok"} 1`,
		`fedforecaster_client_retries_total{client="1"} 1`,
		`fedforecaster_client_drops_total{client="2"} 1`,
		`fedforecaster_client_cache_hits_total{client="0"} 1`,
		`fedforecaster_client_cache_misses_total{client="0"} 1`,
		`fedforecaster_candidate_eval_seconds_count{client="0"} 1`,
		`fedforecaster_chaos_injections_total{fault="transient"} 1`,
		`fedforecaster_client_call_seconds_bucket{client="0",le="0.001"} 1`,
		`fedforecaster_client_call_seconds_count{client="0"} 1`,
		`fedforecaster_client_call_seconds_count{client="1"} 2`,
		`fedforecaster_round_seconds_count{kind="eval/config"} 1`,
		`fedforecaster_phase_seconds_sum{phase="optimize"} 0.007`,
		`fedforecaster_phase_seconds_count{phase="optimize"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// First attempts are not retries.
	if strings.Contains(out, `fedforecaster_client_retries_total{client="0"} 1`) {
		t.Error("client 0's single first attempt was counted as a retry")
	}
}

func TestHistogramCumulativeBuckets(t *testing.T) {
	h := newHistogram()
	h.observeNS(400_000)        // 0.0004s -> first bucket (le 0.0005)
	h.observeNS(2_000_000)      // 0.002s  -> le 0.0025
	h.observeNS(60_000_000_000) // 60s -> +Inf bucket

	var b strings.Builder
	writeHistogram(&b, "x", `l="v"`, h)
	out := b.String()
	for _, want := range []string{
		`x_bucket{l="v",le="0.0005"} 1`,
		`x_bucket{l="v",le="0.001"} 1`,
		`x_bucket{l="v",le="0.0025"} 2`,
		`x_bucket{l="v",le="10"} 2`,
		`x_bucket{l="v",le="+Inf"} 3`,
		`x_count{l="v"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("histogram output missing %q\ngot:\n%s", want, out)
		}
	}
}

func TestMetricsConcurrentRecordAndScrape(t *testing.T) {
	m := NewMetrics()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				m.Record(SpanEnd{Kind: SpanAttempt, Name: SpanAttempt, Client: g % 3, DurationNS: int64(i), Outcome: OutcomeOK})
				m.Record(SpanEnd{Kind: SpanRound, Name: "eval/config", Client: -1, Survivors: 3, DurationNS: int64(i)})
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			var b strings.Builder
			if err := m.WritePrometheus(&b); err != nil {
				t.Errorf("scrape %d: %v", i, err)
				return
			}
		}
	}()
	wg.Wait()

	var b strings.Builder
	if err := m.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `fedforecaster_rounds_completed_total{kind="eval/config"} 1600`) {
		t.Error("concurrent updates lost round completions")
	}
}
