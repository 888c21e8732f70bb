package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// latencyBuckets are the fixed histogram upper bounds in seconds,
// shared by every latency histogram (per-client call latency, per-kind
// round duration). Fixed buckets keep observation lock-free — each
// observation is two atomic adds — and make scrapes comparable across
// runs.
var latencyBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// histogram is a fixed-bucket latency histogram. Bucket counts are
// non-cumulative internally (one atomic increment per observation) and
// accumulated into Prometheus' cumulative form at render time.
type histogram struct {
	counts []atomic.Int64 // len(latencyBuckets)+1; last bucket is +Inf
	sumNS  atomic.Int64
}

// newHistogram allocates the bucket slots.
func newHistogram() *histogram {
	return &histogram{counts: make([]atomic.Int64, len(latencyBuckets)+1)}
}

// observeNS records one duration.
func (h *histogram) observeNS(ns int64) {
	s := float64(ns) / 1e9
	idx := len(latencyBuckets)
	for i, b := range latencyBuckets {
		if s <= b {
			idx = i
			break
		}
	}
	h.counts[idx].Add(1)
	h.sumNS.Add(ns)
}

// outcomeNames fixes the label order (and array layout) of per-client
// call outcome counters.
var outcomeNames = [...]string{OutcomeOK, OutcomeTransient, OutcomeTimeout, OutcomeDead, OutcomeError}

// outcomeIndex maps an outcome label to its counter slot (unknown
// labels land on OutcomeError).
func outcomeIndex(outcome string) int {
	for i, n := range outcomeNames {
		if n == outcome {
			return i
		}
	}
	return len(outcomeNames) - 1
}

// clientMetrics is one client's counters. All fields are atomics, so
// concurrent quorum goroutines never contend once the slot exists.
type clientMetrics struct {
	outcomes    [len(outcomeNames)]atomic.Int64
	retries     atomic.Int64
	drops       atomic.Int64
	latency     *histogram
	cacheHits   atomic.Int64
	cacheMisses atomic.Int64
	evals       atomic.Int64
	evalNS      atomic.Int64
}

// roundMetrics is one round kind's counters.
type roundMetrics struct {
	started   atomic.Int64
	completed atomic.Int64
	failed    atomic.Int64
	survivors atomic.Int64 // sum over completed rounds
	duration  *histogram
}

// phaseMetrics is one engine phase's duration summary.
type phaseMetrics struct {
	count atomic.Int64
	sumNS atomic.Int64
}

// Metrics is a Recorder aggregating the event stream into counters and
// fixed-bucket histograms, rendered in Prometheus text exposition
// format by WritePrometheus. Scalar counters are plain atomics; the
// per-client / per-kind families live in lazily grown maps guarded by
// an RWMutex taken only for slot lookup (read-locked on the hot path,
// write-locked once per new client or kind), after which every update
// is lock-free.
type Metrics struct {
	runsStarted  atomic.Int64
	runsEnded    atomic.Int64
	activeRuns   atomic.Int64
	boIterations atomic.Int64
	// lastActivityNS is the Unix-nanosecond timestamp of the most
	// recent run or round span event — the liveness signal /healthz
	// compares against its stall threshold.
	lastActivityNS atomic.Int64

	mu      sync.RWMutex
	clients map[int]*clientMetrics   // guarded by mu
	rounds  map[string]*roundMetrics // guarded by mu
	phases  map[string]*phaseMetrics // guarded by mu
	chaos   map[string]*atomic.Int64 // guarded by mu
}

// NewMetrics returns an empty metrics recorder.
func NewMetrics() *Metrics {
	return &Metrics{
		clients: map[int]*clientMetrics{},
		rounds:  map[string]*roundMetrics{},
		phases:  map[string]*phaseMetrics{},
		chaos:   map[string]*atomic.Int64{},
	}
}

// client returns (creating if needed) the slot for one client index.
func (m *Metrics) client(i int) *clientMetrics {
	m.mu.RLock()
	c, ok := m.clients[i]
	m.mu.RUnlock()
	if ok {
		return c
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if c, ok = m.clients[i]; ok {
		return c
	}
	c = &clientMetrics{latency: newHistogram()}
	m.clients[i] = c
	return c
}

// round returns (creating if needed) the slot for one round kind.
func (m *Metrics) round(kind string) *roundMetrics {
	m.mu.RLock()
	r, ok := m.rounds[kind]
	m.mu.RUnlock()
	if ok {
		return r
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if r, ok = m.rounds[kind]; ok {
		return r
	}
	r = &roundMetrics{duration: newHistogram()}
	m.rounds[kind] = r
	return r
}

// phase returns (creating if needed) the slot for one phase name.
func (m *Metrics) phase(name string) *phaseMetrics {
	m.mu.RLock()
	p, ok := m.phases[name]
	m.mu.RUnlock()
	if ok {
		return p
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if p, ok = m.phases[name]; ok {
		return p
	}
	p = &phaseMetrics{}
	m.phases[name] = p
	return p
}

// chaosCounter returns (creating if needed) the injection counter for
// one fault label.
func (m *Metrics) chaosCounter(fault string) *atomic.Int64 {
	m.mu.RLock()
	c, ok := m.chaos[fault]
	m.mu.RUnlock()
	if ok {
		return c
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if c, ok = m.chaos[fault]; ok {
		return c
	}
	c = &atomic.Int64{}
	m.chaos[fault] = c
	return c
}

// touch refreshes the liveness timestamp.
func (m *Metrics) touch() {
	m.lastActivityNS.Store(NowNanos())
}

// Record implements Recorder. Spans drive the run, phase, round and
// attempt families, each update from a single event: a start counts
// what began, a self-describing end what finished and how long it
// took. Run and round spans refresh the liveness timestamp.
func (m *Metrics) Record(ev Event) {
	switch e := ev.(type) {
	case SpanStart:
		switch e.Kind {
		case SpanRun:
			m.runsStarted.Add(1)
			m.activeRuns.Add(1)
			m.touch()
		case SpanRound:
			m.round(e.Name).started.Add(1)
			m.touch()
		case SpanAttempt:
			if e.Seq > 1 {
				m.client(e.Client).retries.Add(1)
			}
		}
	case SpanEnd:
		switch e.Kind {
		case SpanRun:
			m.runsEnded.Add(1)
			m.activeRuns.Add(-1)
			m.touch()
		case SpanPhase:
			p := m.phase(e.Name)
			p.count.Add(1)
			p.sumNS.Add(e.DurationNS)
		case SpanRound:
			r := m.round(e.Name)
			if e.Err == "" {
				r.completed.Add(1)
				r.survivors.Add(int64(e.Survivors))
			} else {
				r.failed.Add(1)
			}
			r.duration.observeNS(e.DurationNS)
			m.touch()
		case SpanAttempt:
			c := m.client(e.Client)
			c.outcomes[outcomeIndex(e.Outcome)].Add(1)
			c.latency.observeNS(e.DurationNS)
		}
	case ClientDropped:
		m.client(e.Client).drops.Add(1)
	case ClientCache:
		c := m.client(e.Client)
		if e.Hit {
			c.cacheHits.Add(1)
		} else {
			c.cacheMisses.Add(1)
		}
	case CandidateEval:
		c := m.client(e.Client)
		c.evals.Add(1)
		c.evalNS.Add(e.EvalNS)
	case BOIteration:
		m.boIterations.Add(1)
	case ChaosInject:
		m.chaosCounter(e.Fault).Add(1)
	}
}

// ActiveRuns reports how many run spans are currently open.
func (m *Metrics) ActiveRuns() int64 { return m.activeRuns.Load() }

// LastActivityNanos reports the Unix-nanosecond timestamp of the most
// recent run or round span event (0 = none yet).
func (m *Metrics) LastActivityNanos() int64 { return m.lastActivityNS.Load() }

// fnum renders a float in the shortest exact form Prometheus accepts.
func fnum(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// WritePrometheus renders every metric family in Prometheus text
// exposition format. Output order is deterministic: families in fixed
// order, clients by ascending index, kinds/phases/faults sorted.
func (m *Metrics) WritePrometheus(w io.Writer) error {
	var b strings.Builder

	fmt.Fprintf(&b, "# HELP fedforecaster_runs_started_total Engine runs started.\n# TYPE fedforecaster_runs_started_total counter\nfedforecaster_runs_started_total %d\n", m.runsStarted.Load())
	fmt.Fprintf(&b, "# HELP fedforecaster_runs_ended_total Engine runs finished.\n# TYPE fedforecaster_runs_ended_total counter\nfedforecaster_runs_ended_total %d\n", m.runsEnded.Load())
	fmt.Fprintf(&b, "# HELP fedforecaster_runs_active Engine runs in progress.\n# TYPE fedforecaster_runs_active gauge\nfedforecaster_runs_active %d\n", m.activeRuns.Load())
	fmt.Fprintf(&b, "# HELP fedforecaster_bo_iterations_total Bayesian-optimization observations.\n# TYPE fedforecaster_bo_iterations_total counter\nfedforecaster_bo_iterations_total %d\n", m.boIterations.Load())
	fmt.Fprintf(&b, "# HELP fedforecaster_last_activity_timestamp_seconds Unix time of the last run/round event.\n# TYPE fedforecaster_last_activity_timestamp_seconds gauge\nfedforecaster_last_activity_timestamp_seconds %s\n", fnum(float64(m.lastActivityNS.Load())/1e9))

	m.mu.RLock()
	defer m.mu.RUnlock()

	m.writeRounds(&b)
	m.writePhases(&b)
	m.writeClients(&b)
	m.writeChaos(&b)

	_, err := io.WriteString(w, b.String())
	return err
}

// sortedRoundKinds returns the round kinds in sorted order; callers
// hold m.mu.
func (m *Metrics) sortedRoundKinds() []string {
	kinds := make([]string, 0, len(m.rounds))
	for k := range m.rounds {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	return kinds
}

// writeRounds renders the per-round-kind families; callers hold m.mu.
func (m *Metrics) writeRounds(b *strings.Builder) {
	kinds := m.sortedRoundKinds()
	fmt.Fprintf(b, "# HELP fedforecaster_rounds_started_total Federated rounds started, by kind.\n# TYPE fedforecaster_rounds_started_total counter\n")
	for _, k := range kinds {
		fmt.Fprintf(b, "fedforecaster_rounds_started_total{kind=%q} %d\n", k, m.rounds[k].started.Load())
	}
	fmt.Fprintf(b, "# HELP fedforecaster_rounds_completed_total Federated rounds that met quorum, by kind.\n# TYPE fedforecaster_rounds_completed_total counter\n")
	for _, k := range kinds {
		fmt.Fprintf(b, "fedforecaster_rounds_completed_total{kind=%q} %d\n", k, m.rounds[k].completed.Load())
	}
	fmt.Fprintf(b, "# HELP fedforecaster_rounds_failed_total Federated rounds that failed, by kind.\n# TYPE fedforecaster_rounds_failed_total counter\n")
	for _, k := range kinds {
		fmt.Fprintf(b, "fedforecaster_rounds_failed_total{kind=%q} %d\n", k, m.rounds[k].failed.Load())
	}
	fmt.Fprintf(b, "# HELP fedforecaster_round_survivors_total Sum of survivor counts over completed rounds, by kind.\n# TYPE fedforecaster_round_survivors_total counter\n")
	for _, k := range kinds {
		fmt.Fprintf(b, "fedforecaster_round_survivors_total{kind=%q} %d\n", k, m.rounds[k].survivors.Load())
	}
	fmt.Fprintf(b, "# HELP fedforecaster_round_seconds Round duration, by kind.\n# TYPE fedforecaster_round_seconds histogram\n")
	for _, k := range kinds {
		writeHistogram(b, "fedforecaster_round_seconds", fmt.Sprintf("kind=%q", k), m.rounds[k].duration)
	}
}

// writePhases renders the per-phase duration summaries; callers hold
// m.mu.
func (m *Metrics) writePhases(b *strings.Builder) {
	phases := make([]string, 0, len(m.phases))
	for p := range m.phases {
		phases = append(phases, p)
	}
	sort.Strings(phases)
	fmt.Fprintf(b, "# HELP fedforecaster_phase_seconds Engine phase duration.\n# TYPE fedforecaster_phase_seconds summary\n")
	for _, p := range phases {
		ph := m.phases[p]
		fmt.Fprintf(b, "fedforecaster_phase_seconds_sum{phase=%q} %s\n", p, fnum(float64(ph.sumNS.Load())/1e9))
		fmt.Fprintf(b, "fedforecaster_phase_seconds_count{phase=%q} %d\n", p, ph.count.Load())
	}
}

// writeClients renders the per-client families; callers hold m.mu.
func (m *Metrics) writeClients(b *strings.Builder) {
	ids := make([]int, 0, len(m.clients))
	for id := range m.clients {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	fmt.Fprintf(b, "# HELP fedforecaster_client_calls_total Client call attempts, by client and outcome.\n# TYPE fedforecaster_client_calls_total counter\n")
	for _, id := range ids {
		c := m.clients[id]
		for oi, name := range outcomeNames {
			if n := c.outcomes[oi].Load(); n > 0 {
				fmt.Fprintf(b, "fedforecaster_client_calls_total{client=\"%d\",outcome=%q} %d\n", id, name, n)
			}
		}
	}
	fmt.Fprintf(b, "# HELP fedforecaster_client_retries_total Retry attempts (attempt > 1), by client.\n# TYPE fedforecaster_client_retries_total counter\n")
	for _, id := range ids {
		fmt.Fprintf(b, "fedforecaster_client_retries_total{client=\"%d\"} %d\n", id, m.clients[id].retries.Load())
	}
	fmt.Fprintf(b, "# HELP fedforecaster_client_drops_total Clients dropped from quorum rounds, by client.\n# TYPE fedforecaster_client_drops_total counter\n")
	for _, id := range ids {
		fmt.Fprintf(b, "fedforecaster_client_drops_total{client=\"%d\"} %d\n", id, m.clients[id].drops.Load())
	}
	fmt.Fprintf(b, "# HELP fedforecaster_client_call_seconds Client call attempt latency, by client.\n# TYPE fedforecaster_client_call_seconds histogram\n")
	for _, id := range ids {
		writeHistogram(b, "fedforecaster_client_call_seconds", fmt.Sprintf("client=\"%d\"", id), m.clients[id].latency)
	}
	fmt.Fprintf(b, "# HELP fedforecaster_client_cache_hits_total Feature-matrix cache hits, by client.\n# TYPE fedforecaster_client_cache_hits_total counter\n")
	for _, id := range ids {
		fmt.Fprintf(b, "fedforecaster_client_cache_hits_total{client=\"%d\"} %d\n", id, m.clients[id].cacheHits.Load())
	}
	fmt.Fprintf(b, "# HELP fedforecaster_client_cache_misses_total Feature-matrix cache builds, by client.\n# TYPE fedforecaster_client_cache_misses_total counter\n")
	for _, id := range ids {
		fmt.Fprintf(b, "fedforecaster_client_cache_misses_total{client=\"%d\"} %d\n", id, m.clients[id].cacheMisses.Load())
	}
	fmt.Fprintf(b, "# HELP fedforecaster_candidate_eval_seconds Per-candidate evaluation time, by client.\n# TYPE fedforecaster_candidate_eval_seconds summary\n")
	for _, id := range ids {
		c := m.clients[id]
		fmt.Fprintf(b, "fedforecaster_candidate_eval_seconds_sum{client=\"%d\"} %s\n", id, fnum(float64(c.evalNS.Load())/1e9))
		fmt.Fprintf(b, "fedforecaster_candidate_eval_seconds_count{client=\"%d\"} %d\n", id, c.evals.Load())
	}
}

// writeChaos renders the chaos-injection counters; callers hold m.mu.
func (m *Metrics) writeChaos(b *strings.Builder) {
	faults := make([]string, 0, len(m.chaos))
	for f := range m.chaos {
		faults = append(faults, f)
	}
	sort.Strings(faults)
	fmt.Fprintf(b, "# HELP fedforecaster_chaos_injections_total Faults injected by the chaos transport, by fault.\n# TYPE fedforecaster_chaos_injections_total counter\n")
	for _, f := range faults {
		fmt.Fprintf(b, "fedforecaster_chaos_injections_total{fault=%q} %d\n", f, m.chaos[f].Load())
	}
}

// writeHistogram renders one histogram series with cumulative buckets,
// sum, and count, under the given label set.
func writeHistogram(b *strings.Builder, name, labels string, h *histogram) {
	var cum int64
	for i, bound := range latencyBuckets {
		cum += h.counts[i].Load()
		fmt.Fprintf(b, "%s_bucket{%s,le=%q} %d\n", name, labels, fnum(bound), cum)
	}
	cum += h.counts[len(latencyBuckets)].Load()
	fmt.Fprintf(b, "%s_bucket{%s,le=\"+Inf\"} %d\n", name, labels, cum)
	fmt.Fprintf(b, "%s_sum{%s} %s\n", name, labels, fnum(float64(h.sumNS.Load())/1e9))
	fmt.Fprintf(b, "%s_count{%s} %d\n", name, labels, cum)
}
