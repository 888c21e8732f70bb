package obs

import (
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// get fetches a path from the test server.
func get(t *testing.T, srv *HTTPServer, path string) (int, string) {
	t.Helper()
	resp, err := http.Get("http://" + srv.Addr() + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading %s: %v", path, err)
	}
	return resp.StatusCode, string(body)
}

func TestServeMetricsAndPprof(t *testing.T) {
	m := NewMetrics()
	m.Record(SpanStart{Kind: SpanRun, Name: SpanRun, Client: -1})
	srv, err := Serve("127.0.0.1:0", ServeOptions{Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	code, body := get(t, srv, "/metrics")
	if code != http.StatusOK {
		t.Errorf("/metrics status = %d", code)
	}
	if !strings.Contains(body, "fedforecaster_runs_started_total 1") {
		t.Errorf("/metrics missing run counter; got:\n%s", body)
	}
	if code, body := get(t, srv, "/debug/pprof/cmdline"); code != http.StatusOK || body == "" {
		t.Errorf("/debug/pprof/cmdline status = %d, body %d bytes", code, len(body))
	}
}

func TestHealthzStallDetection(t *testing.T) {
	m := NewMetrics()
	srv, err := Serve("127.0.0.1:0", ServeOptions{Metrics: m, StallAfter: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// No active run: healthy regardless of age.
	if code, body := get(t, srv, "/healthz"); code != http.StatusOK || !strings.Contains(body, `"status":"ok"`) {
		t.Errorf("idle healthz = %d %s, want 200 ok", code, body)
	}

	// Active run with fresh activity: healthy.
	m.Record(SpanStart{Kind: SpanRun, Name: SpanRun, Client: -1})
	if code, _ := get(t, srv, "/healthz"); code != http.StatusOK {
		t.Errorf("fresh-run healthz = %d, want 200", code)
	}

	// Let the run outlive the stall threshold with no round spans.
	time.Sleep(120 * time.Millisecond)
	code, body := get(t, srv, "/healthz")
	if code != http.StatusServiceUnavailable || !strings.Contains(body, `"status":"stalled"`) {
		t.Errorf("stalled healthz = %d %s, want 503 stalled", code, body)
	}

	// A round span revives liveness.
	m.Record(SpanEnd{Kind: SpanRound, Name: "eval/config", Client: -1, Survivors: 2})
	if code, _ := get(t, srv, "/healthz"); code != http.StatusOK {
		t.Errorf("revived healthz = %d, want 200", code)
	}

	// Run ends: healthy again even as time passes.
	m.Record(SpanEnd{Kind: SpanRun, Name: SpanRun, Client: -1})
	time.Sleep(120 * time.Millisecond)
	if code, _ := get(t, srv, "/healthz"); code != http.StatusOK {
		t.Errorf("post-run healthz = %d, want 200", code)
	}
}

// TestServeConcurrentScrapesDuringLiveRun hammers /metrics and
// /healthz from multiple goroutines while a simulated run keeps
// recording round and client events concurrently (the shape of a live
// batched chaos run). Under -race this pins the scrape path against
// the recording path; functionally, /healthz must stay 200 while
// activity flows and flip to stalled only after activity stops.
func TestServeConcurrentScrapesDuringLiveRun(t *testing.T) {
	m := NewMetrics()
	srv, err := Serve("127.0.0.1:0", ServeOptions{Metrics: m, StallAfter: 200 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	m.Record(SpanStart{Kind: SpanRun, Name: SpanRun, Client: -1})
	stop := make(chan struct{})
	var wg sync.WaitGroup

	// The simulated run: rounds, per-attempt calls (some retried), a
	// drop, chaos injections — emitted from two goroutines like the
	// engine's per-client call fan-out.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				m.Record(SpanStart{Kind: SpanAttempt, Name: SpanAttempt, Seq: 1 + i%2, Client: g})
				m.Record(SpanEnd{Kind: SpanAttempt, Name: SpanAttempt, Client: g, DurationNS: 1000, Bytes: 64, Outcome: OutcomeOK})
				m.Record(ChaosInject{Client: g, Fault: "delay"})
				if i%3 == 0 {
					m.Record(ClientDropped{Kind: "eval/config", Client: g, Reason: "dead"})
					m.Record(SpanEnd{Kind: SpanRound, Name: "eval/config", Client: -1, Survivors: 3})
				}
				time.Sleep(time.Millisecond)
			}
		}(g)
	}

	var badHealth, scrapes int64
	for _, path := range []string{"/metrics", "/metrics", "/healthz"} {
		wg.Add(1)
		go func(path string) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get("http://" + srv.Addr() + path)
				if err != nil {
					t.Errorf("GET %s: %v", path, err)
					return
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				atomic.AddInt64(&scrapes, 1)
				if path == "/healthz" && resp.StatusCode != http.StatusOK {
					atomic.AddInt64(&badHealth, 1)
				}
				if path == "/metrics" && resp.StatusCode == http.StatusOK && len(body) == 0 {
					t.Errorf("/metrics returned empty exposition mid-run")
					return
				}
			}
		}(path)
	}

	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()

	if n := atomic.LoadInt64(&scrapes); n == 0 {
		t.Fatal("no scrapes completed during the live run")
	}
	if n := atomic.LoadInt64(&badHealth); n != 0 {
		t.Errorf("/healthz flipped unhealthy %d times while activity flowed", n)
	}

	// Activity stopped mid-run: the stall detector must now trip.
	deadline := time.Now().Add(2 * time.Second)
	for {
		code, body := get(t, srv, "/healthz")
		if code == http.StatusServiceUnavailable && strings.Contains(body, `"status":"stalled"`) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("stall never detected after activity ceased: last %d %s", code, body)
		}
		time.Sleep(20 * time.Millisecond)
	}
	// The final exposition reflects the concurrent stream coherently.
	_, metricsBody := get(t, srv, "/metrics")
	for _, want := range []string{
		"fedforecaster_runs_started_total 1",
		`fedforecaster_client_retries_total{client="0"}`,
		`fedforecaster_chaos_injections_total{fault="delay"}`,
	} {
		if !strings.Contains(metricsBody, want) {
			t.Errorf("final exposition missing %q", want)
		}
	}
}

func TestServeNilMetrics(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", ServeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if code, _ := get(t, srv, "/metrics"); code != http.StatusOK {
		t.Errorf("nil-metrics /metrics = %d, want 200 (empty exposition)", code)
	}
	if code, body := get(t, srv, "/healthz"); code != http.StatusOK || !strings.Contains(body, `"status":"ok"`) {
		t.Errorf("nil-metrics healthz = %d %s, want always-healthy", code, body)
	}
}
