package core

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime/pprof"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"fedforecaster/internal/fl"
	"fedforecaster/internal/obs"
)

// historyFingerprint renders a result's replayable surface — candidate
// order, bit-exact losses, incumbent, test MSE — as comparable strings.
// Elapsed is excluded: it is documented wall-clock diagnostics.
func historyFingerprint(res *Result) []string {
	out := make([]string, 0, len(res.History)+2)
	for _, h := range res.History {
		out = append(out, fmt.Sprintf("%s|%016x", h.Config.String(), math.Float64bits(h.GlobalLoss)))
	}
	out = append(out,
		fmt.Sprintf("best:%s|%016x", res.BestConfig.String(), math.Float64bits(res.BestValidLoss)),
		fmt.Sprintf("test:%016x", math.Float64bits(res.TestMSE)))
	return out
}

// TestNilRecorderRunIdentical pins the telemetry no-interference
// contract: a run with a live recorder produces exactly the same
// Result (history, incumbent, test MSE, communication accounting) as a
// nil-recorder run. Events observe the run; they never perturb it.
func TestNilRecorderRunIdentical(t *testing.T) {
	run := func(rec obs.Recorder) *Result {
		clients := fedDataset(t, 1600, 4, 11)
		cfg := smallEngineConfig(42)
		cfg.Iterations = 8
		cfg.Recorder = rec
		eng := NewEngine(nil, cfg)
		res, err := eng.Run(clients)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	plain := run(nil)
	recorded := run(obs.Multi(obs.NewMetrics(), obs.NewJSONL(io.Discard)))

	a, b := historyFingerprint(plain), historyFingerprint(recorded)
	if len(a) != len(b) {
		t.Fatalf("fingerprint lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("fingerprint[%d]: nil-recorder %q vs recording %q", i, a[i], b[i])
		}
	}
	if plain.Comms != recorded.Comms {
		t.Errorf("comms differ: %+v vs %+v", plain.Comms, recorded.Comms)
	}
}

// TestTraceOutCoversAllPhases drives a run into a JSONL sink and
// checks the stream's shape: one run span, all five phase spans in
// order, balanced round spans, one attempt span per delivered call at
// least, BO iterations matching the budget, client-side cache records,
// and none of the flat records spans replaced. The run span is
// sequence number 0 of the seed's trace, so its ID is a function of
// the seed alone.
func TestTraceOutCoversAllPhases(t *testing.T) {
	var buf bytes.Buffer
	sink := obs.NewJSONL(&buf)
	clients := fedDataset(t, 1500, 3, 1)
	cfg := smallEngineConfig(2)
	cfg.BatchSize = 2
	cfg.Recorder = sink
	eng := NewEngine(nil, cfg)
	res, err := eng.Run(clients)
	if err != nil {
		t.Fatal(err)
	}
	// The sink buffers; Close flushes the tail of the stream.
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}

	type envelope struct {
		TS    int64           `json:"ts"`
		Event string          `json:"event"`
		Data  json.RawMessage `json:"data"`
	}
	counts := map[string]int{}
	var phaseStarts []string
	var runStart obs.SpanStart
	for _, line := range strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n") {
		var env envelope
		if err := json.Unmarshal([]byte(line), &env); err != nil {
			t.Fatalf("bad JSONL line %q: %v", line, err)
		}
		if env.TS == 0 {
			t.Fatalf("line %q missing timestamp", line)
		}
		counts[env.Event]++
		if env.Event != "span_start" && env.Event != "span_end" {
			continue
		}
		var d obs.SpanStart
		if err := json.Unmarshal(env.Data, &d); err != nil {
			t.Fatal(err)
		}
		counts[env.Event+"/"+d.Kind]++
		if env.Event == "span_start" && d.Kind == obs.SpanPhase {
			phaseStarts = append(phaseStarts, d.Name)
		}
		if env.Event == "span_start" && d.Kind == obs.SpanRun {
			runStart = d
		}
	}

	trace := obs.DeriveTrace(cfg.Seed)
	wantTrace, wantSpan := obs.HexID(trace), obs.HexID(obs.DeriveSpan(trace, obs.SpanRun, 0))
	if runStart.Trace != wantTrace || runStart.Span != wantSpan || runStart.Seq != 0 {
		t.Errorf("run span = %+v, want trace %s, span %s, seq 0", runStart, wantTrace, wantSpan)
	}

	wantPhases := []string{"meta-features", "recommend", "feature-select", "optimize", "final-fit"}
	if fmt.Sprint(phaseStarts) != fmt.Sprint(wantPhases) {
		t.Errorf("phase spans = %v, want %v", phaseStarts, wantPhases)
	}
	if counts["span_end/phase"] != len(wantPhases) {
		t.Errorf("phase span ends = %d, want %d", counts["span_end/phase"], len(wantPhases))
	}
	if counts["span_start/run"] != 1 || counts["span_end/run"] != 1 {
		t.Errorf("run span = %d starts / %d ends, want 1/1", counts["span_start/run"], counts["span_end/run"])
	}
	if counts["span_start/round"] == 0 || counts["span_start/round"] != counts["span_end/round"] {
		t.Errorf("round spans unbalanced: %d starts, %d ends", counts["span_start/round"], counts["span_end/round"])
	}
	if counts["bo_iteration"] != res.Iterations {
		t.Errorf("bo_iteration count = %d, want %d", counts["bo_iteration"], res.Iterations)
	}
	if counts["span_end/attempt"] < res.Comms.Calls {
		t.Errorf("attempt spans = %d, want >= %d successful calls", counts["span_end/attempt"], res.Comms.Calls)
	}
	if counts["client_cache"] == 0 {
		t.Error("no client_cache events: the v2 matrix cache went unobserved")
	}
	if counts["candidate_eval"] == 0 {
		t.Error("no candidate_eval events")
	}
	for _, flat := range []string{"run_start", "run_end", "phase_start", "phase_end", "round_start", "round_end", "client_call", "note"} {
		if counts[flat] != 0 {
			t.Errorf("%d %s events: spans are the only timing record", counts[flat], flat)
		}
	}
	// Causal spans: every opened span closes (no faults in this run),
	// and there are strictly more spans than rounds — run + phases +
	// rounds + per-client calls + attempts + shipped client ops.
	if counts["span_start"] == 0 || counts["span_start"] != counts["span_end"] {
		t.Errorf("span events unbalanced: %d starts, %d ends", counts["span_start"], counts["span_end"])
	}
	if counts["span_start"] <= counts["span_start/round"] {
		t.Errorf("span_start count = %d, want more than the %d rounds", counts["span_start"], counts["span_start/round"])
	}
	if counts["comms_summary"] != 1 {
		t.Errorf("comms_summary count = %d, want 1", counts["comms_summary"])
	}
}

// TestTelemetryRaceBatchedChaosRun is the acceptance scenario under
// the race detector: a batched run over a chaos transport (transient
// flaps + one mid-run death) with a live Metrics recorder, a JSONL
// sink, the chaos injector reporting into the same stream, and an HTTP
// scraper hammering /metrics concurrently. The run must finish, waste
// must be visible in Result.Comms, and the scrape must expose
// per-client latency histograms plus drop/retry/chaos counters.
func TestTelemetryRaceBatchedChaosRun(t *testing.T) {
	clients := fedDataset(t, 1600, 4, 11)
	cfg := resilientConfig(5, 0.5, 2)
	cfg.BatchSize = 2
	cfg.Iterations = 6

	metrics := obs.NewMetrics()
	sink := obs.NewJSONL(io.Discard)
	cfg.Recorder = obs.Multi(metrics, sink)

	srv, chaos := chaosServer(clients, cfg.Seed)
	defer srv.Close()
	chaos.SetRecorder(cfg.Recorder)
	chaos.SetFaults(1, fl.ClientFaults{FailFirst: 2})
	chaos.SetFaults(2, fl.ClientFaults{DieAfter: 5})

	httpSrv, err := obs.Serve("127.0.0.1:0", obs.ServeOptions{Metrics: metrics})
	if err != nil {
		t.Fatal(err)
	}
	defer httpSrv.Close()

	done := make(chan struct{})
	var wg sync.WaitGroup
	// Two concurrent scrapers — /metrics and /healthz — run against the
	// live chaos run: health probing a server mid-round must neither
	// race the recorders nor observe a stall (the run is making
	// progress, so LastActivityNanos keeps refreshing).
	var badHealth int32
	for _, path := range []string{"/metrics", "/healthz"} {
		wg.Add(1)
		go func(path string) {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				resp, err := http.Get("http://" + httpSrv.Addr() + path)
				if err != nil {
					continue // server may be mid-shutdown at test end
				}
				if path == "/healthz" && resp.StatusCode != http.StatusOK {
					atomic.AddInt32(&badHealth, 1)
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}(path)
	}

	eng := NewEngine(nil, cfg)
	res, err := eng.RunWithServer(srv)
	close(done)
	wg.Wait()
	if err != nil {
		t.Fatalf("chaos run failed: %v", err)
	}
	if n := atomic.LoadInt32(&badHealth); n != 0 {
		t.Errorf("/healthz reported unhealthy %d times during a live run", n)
	}
	if err := sink.Close(); err != nil {
		t.Fatalf("JSONL sink: %v", err)
	}
	if res.Iterations != cfg.Iterations {
		t.Errorf("iterations = %d, want %d", res.Iterations, cfg.Iterations)
	}

	// The satellite fix's acceptance: retried/failed attempts surface
	// as waste in the run-scoped accounting.
	if res.Comms.WastedCalls == 0 || res.Comms.WastedBytes == 0 {
		t.Errorf("chaos run reported no waste: %+v", res.Comms)
	}

	var b strings.Builder
	if err := metrics.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"fedforecaster_runs_ended_total 1",
		`fedforecaster_client_call_seconds_bucket{client="1",le="+Inf"}`,
		`fedforecaster_client_calls_total{client="1",outcome="transient"}`,
		`fedforecaster_client_retries_total{client="1"}`,
		`fedforecaster_client_drops_total{client="2"}`,
		`fedforecaster_chaos_injections_total{fault="transient"}`,
		"fedforecaster_rounds_completed_total",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("final exposition missing %q", want)
		}
	}
}

// parentChaosCounts is every counter and every histogram or summary
// count metricsChaosRun exposes, as the engine produced them while it
// also recorded flat run, phase, round and client_call events beside
// the spans. Spans alone must yield the same figures.
const parentChaosCounts = `fedforecaster_runs_started_total 1
fedforecaster_runs_ended_total 1
fedforecaster_bo_iterations_total 6
fedforecaster_rounds_started_total{kind="eval/config"} 3
fedforecaster_rounds_started_total{kind="eval/prepare"} 1
fedforecaster_rounds_started_total{kind="fit/final"} 1
fedforecaster_rounds_started_total{kind="props/importances"} 1
fedforecaster_rounds_started_total{kind="props/metafeatures"} 1
fedforecaster_rounds_started_total{kind="props/range"} 1
fedforecaster_rounds_completed_total{kind="eval/config"} 3
fedforecaster_rounds_completed_total{kind="eval/prepare"} 1
fedforecaster_rounds_completed_total{kind="fit/final"} 1
fedforecaster_rounds_completed_total{kind="props/importances"} 1
fedforecaster_rounds_completed_total{kind="props/metafeatures"} 1
fedforecaster_rounds_completed_total{kind="props/range"} 1
fedforecaster_rounds_failed_total{kind="eval/config"} 0
fedforecaster_rounds_failed_total{kind="eval/prepare"} 0
fedforecaster_rounds_failed_total{kind="fit/final"} 0
fedforecaster_rounds_failed_total{kind="props/importances"} 0
fedforecaster_rounds_failed_total{kind="props/metafeatures"} 0
fedforecaster_rounds_failed_total{kind="props/range"} 0
fedforecaster_round_survivors_total{kind="eval/config"} 10
fedforecaster_round_survivors_total{kind="eval/prepare"} 4
fedforecaster_round_survivors_total{kind="fit/final"} 3
fedforecaster_round_survivors_total{kind="props/importances"} 4
fedforecaster_round_survivors_total{kind="props/metafeatures"} 4
fedforecaster_round_survivors_total{kind="props/range"} 4
fedforecaster_round_seconds_count{kind="eval/config"} 3
fedforecaster_round_seconds_count{kind="eval/prepare"} 1
fedforecaster_round_seconds_count{kind="fit/final"} 1
fedforecaster_round_seconds_count{kind="props/importances"} 1
fedforecaster_round_seconds_count{kind="props/metafeatures"} 1
fedforecaster_round_seconds_count{kind="props/range"} 1
fedforecaster_phase_seconds_count{phase="feature-select"} 1
fedforecaster_phase_seconds_count{phase="final-fit"} 1
fedforecaster_phase_seconds_count{phase="meta-features"} 1
fedforecaster_phase_seconds_count{phase="optimize"} 1
fedforecaster_phase_seconds_count{phase="recommend"} 1
fedforecaster_client_calls_total{client="0",outcome="ok"} 8
fedforecaster_client_calls_total{client="1",outcome="ok"} 8
fedforecaster_client_calls_total{client="1",outcome="transient"} 2
fedforecaster_client_calls_total{client="2",outcome="ok"} 5
fedforecaster_client_calls_total{client="2",outcome="dead"} 3
fedforecaster_client_calls_total{client="3",outcome="ok"} 8
fedforecaster_client_retries_total{client="0"} 0
fedforecaster_client_retries_total{client="1"} 2
fedforecaster_client_retries_total{client="2"} 0
fedforecaster_client_retries_total{client="3"} 0
fedforecaster_client_drops_total{client="0"} 0
fedforecaster_client_drops_total{client="1"} 0
fedforecaster_client_drops_total{client="2"} 3
fedforecaster_client_drops_total{client="3"} 0
fedforecaster_client_call_seconds_count{client="0"} 8
fedforecaster_client_call_seconds_count{client="1"} 10
fedforecaster_client_call_seconds_count{client="2"} 8
fedforecaster_client_call_seconds_count{client="3"} 8
fedforecaster_client_cache_hits_total{client="0"} 2
fedforecaster_client_cache_hits_total{client="1"} 2
fedforecaster_client_cache_hits_total{client="2"} 0
fedforecaster_client_cache_hits_total{client="3"} 2
fedforecaster_client_cache_misses_total{client="0"} 2
fedforecaster_client_cache_misses_total{client="1"} 2
fedforecaster_client_cache_misses_total{client="2"} 1
fedforecaster_client_cache_misses_total{client="3"} 2
fedforecaster_candidate_eval_seconds_count{client="0"} 7
fedforecaster_candidate_eval_seconds_count{client="1"} 7
fedforecaster_candidate_eval_seconds_count{client="2"} 2
fedforecaster_candidate_eval_seconds_count{client="3"} 7
fedforecaster_chaos_injections_total{fault="dead"} 2
fedforecaster_chaos_injections_total{fault="die"} 1
fedforecaster_chaos_injections_total{fault="transient"} 2
`

// TestMetricsParityChaosRun: on a seeded chaos run — client 1 flaps
// twice (FailFirst), client 2 dies after five calls (DieAfter) — every
// _total counter and every _count series in the Prometheus exposition
// equals the figure recorded before spans became the only timing
// record. The fault schedule and the quorum are deterministic, so the
// counts are too.
func TestMetricsParityChaosRun(t *testing.T) {
	clients := fedDataset(t, 1600, 4, 11)
	cfg := resilientConfig(5, 0.5, 2)
	cfg.BatchSize = 2
	cfg.Iterations = 6
	metrics := obs.NewMetrics()
	cfg.Recorder = metrics
	nodes := make([]fl.Client, len(clients))
	for i, s := range clients {
		nodes[i] = NewClientNode(s, cfg.Seed+int64(i)*101).WithObs(metrics, i)
	}
	chaos := fl.NewChaos(fl.NewInProcWire(nodes, fl.WireOpts{}), cfg.Seed)
	chaos.SetRecorder(metrics)
	chaos.SetFaults(1, fl.ClientFaults{FailFirst: 2})
	chaos.SetFaults(2, fl.ClientFaults{DieAfter: 5})
	srv := fl.NewServer(chaos)
	defer srv.Close()
	if _, err := NewEngine(nil, cfg).RunWithServer(srv); err != nil {
		t.Fatal(err)
	}

	var b strings.Builder
	if err := metrics.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	for _, line := range strings.Split(b.String(), "\n") {
		name, _, _ := strings.Cut(line, " ")
		name, _, _ = strings.Cut(name, "{")
		if strings.HasPrefix(line, "#") || !(strings.HasSuffix(name, "_total") || strings.HasSuffix(name, "_count")) {
			continue
		}
		got.WriteString(line + "\n")
	}
	if got.String() != parentChaosCounts {
		t.Errorf("counts differ from the recorded ones\n--- got ---\n%s--- want ---\n%s", got.String(), parentChaosCounts)
	}
}

// TestPhaseProfileLabels: a CPU profile taken across runs carries the
// engine's phase label, so `go tool pprof -tagfocus phase=optimize`
// splits it by phase, and the labelled runs keep the golden history.
// The profile's string table must hold "phase", "caller" and "outer"
// as entries of their own (field 6, wire type 2: tag byte 0x32, then
// the length), which function names and file paths are not; whole
// runs give those labels many samples. A phase as short as optimize
// can go unsampled at 100 Hz, so its value is read where a sample
// would take it from: the labels of the goroutines serving the
// optimize-round client calls, which must be the caller's label passed
// through RunWithServerContext joined by phase=optimize. The caller's
// label is still the goroutine's label after the run.
func TestPhaseProfileLabels(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("a CPU profile is already running: %v", err)
	}
	var runs []*Result
	for i := 0; i < 2; i++ {
		runs = append(runs, goldenRun(t, 1))
	}
	var after string
	probe := &labelProbe{}
	pprof.Do(context.Background(), pprof.Labels("caller", "outer"), func(ctx context.Context) {
		clients := fedDataset(t, 1600, 4, 11)
		cfg := smallEngineConfig(42)
		cfg.Iterations = 8
		nodes := make([]fl.Client, len(clients))
		for i, s := range clients {
			nodes[i] = NewClientNode(s, cfg.Seed+int64(i)*101)
		}
		probe.Client = nodes[0]
		nodes[0] = probe
		srv := fl.NewServer(fl.NewInProcWire(nodes, cfg.Wire))
		defer srv.Close()
		res, err := NewEngine(nil, cfg).RunWithServerContext(ctx, srv)
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, res)
		after = ownGoroutineLabels(t, "TestPhaseProfileLabels.func")
	})
	pprof.StopCPUProfile()
	for _, res := range runs {
		for i, h := range res.History {
			if got := fmt.Sprintf("%s|%016x", h.Config.String(), math.Float64bits(h.GlobalLoss)); got != goldenHistory[i] {
				t.Fatalf("labelled run: history[%d] = %q, want %q", i, got, goldenHistory[i])
			}
		}
	}
	if want := `{"caller":"outer"}`; after != want {
		t.Errorf("goroutine labels after RunWithServerContext = %q, want %q", after, want)
	}
	want := `{"caller":"outer", "phase":"optimize"}`
	if seen := probe.evalConfigLabels(); len(seen) == 0 || slices.ContainsFunc(seen, func(l string) bool { return l != want }) {
		t.Errorf("eval/config calls served under labels %q, want each %s", seen, want)
	}
	zr, err := gzip.NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []string{"phase", "caller", "outer"} {
		if entry := append([]byte{0x32, byte(len(s))}, s...); !bytes.Contains(raw, entry) {
			t.Errorf("CPU profile has no %q string-table entry", s)
		}
	}
}

// labelProbe wraps a client and records, at each eval/config call, the
// profiler labels of the goroutine serving it.
type labelProbe struct {
	fl.Client

	mu     sync.Mutex
	labels []string // guarded by mu
}

func (p *labelProbe) Evaluate(req fl.Message) (fl.Message, error) {
	if req.Kind == kindEvalConfig {
		var buf bytes.Buffer
		if err := pprof.Lookup("goroutine").WriteTo(&buf, 1); err == nil {
			l, _ := goroutineLabels(buf.String(), "(*labelProbe).Evaluate")
			p.mu.Lock()
			p.labels = append(p.labels, l)
			p.mu.Unlock()
		}
	}
	return p.Client.Evaluate(req)
}

func (p *labelProbe) evalConfigLabels() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return slices.Clone(p.labels)
}

// ownGoroutineLabels returns the profiler labels of the goroutine
// whose stack names frame, as the debug=1 goroutine profile prints
// them ("" for none).
func ownGoroutineLabels(t *testing.T, frame string) string {
	t.Helper()
	var buf bytes.Buffer
	if err := pprof.Lookup("goroutine").WriteTo(&buf, 1); err != nil {
		t.Fatal(err)
	}
	l, ok := goroutineLabels(buf.String(), frame)
	if !ok {
		t.Fatalf("no goroutine with a %q frame in:\n%s", frame, buf.String())
	}
	return l
}

// goroutineLabels finds the first stack of a debug=1 goroutine profile
// that names frame and returns its labels ("" for none); ok is false
// when no stack names frame.
func goroutineLabels(profile, frame string) (labels string, ok bool) {
	for _, block := range strings.Split(profile, "\n\n") {
		if !strings.Contains(block, frame) {
			continue
		}
		for _, line := range strings.Split(block, "\n") {
			if l, ok := strings.CutPrefix(line, "# labels: "); ok {
				return l, true
			}
		}
		return "", true
	}
	return "", false
}
