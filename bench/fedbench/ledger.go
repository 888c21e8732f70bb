package main

import (
	"fmt"
	"strings"
	"sync"

	"fedforecaster/internal/fedtrace"
	"fedforecaster/internal/fl"
	"fedforecaster/internal/obs"
)

// call is one call timed by a wrapper: a client handler (handler
// true) or a whole transport call, which adds the codec round trip.
type call struct {
	handler        bool
	client         int
	kind           string
	startNS, endNS int64
}

// callLog collects the wrappers' timings; the quorum layer calls
// clients from one goroutine each, so add locks.
type callLog struct {
	mu    sync.Mutex
	calls []call // guarded by mu
}

func (l *callLog) add(c call) {
	l.mu.Lock()
	l.calls = append(l.calls, c)
	l.mu.Unlock()
}

func (l *callLog) snapshot() []call {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]call(nil), l.calls...)
}

// timedTransport times each transport call. Embedding fl.WireTransport
// forwards Wire(): without it fl.NewServer would bill v0 PayloadSize
// estimates and the traced run's Comms would differ from the untraced.
type timedTransport struct {
	fl.WireTransport
	log *callLog
}

func (t *timedTransport) Call(i int, req fl.Message) (fl.Message, error) {
	start := obs.NowNanos()
	resp, err := t.WireTransport.Call(i, req)
	t.log.add(call{client: i, kind: req.Kind, startNS: start, endNS: obs.NowNanos()})
	return resp, err
}

// timedClient times each client handler.
type timedClient struct {
	fl.Client
	id  int
	log *callLog
}

func (c *timedClient) Properties(req fl.Message) (fl.Message, error) {
	return c.timed(req, c.Client.Properties)
}

func (c *timedClient) Fit(req fl.Message) (fl.Message, error) { return c.timed(req, c.Client.Fit) }

func (c *timedClient) Evaluate(req fl.Message) (fl.Message, error) {
	return c.timed(req, c.Client.Evaluate)
}

func (c *timedClient) timed(req fl.Message, handle func(fl.Message) (fl.Message, error)) (fl.Message, error) {
	start := obs.NowNanos()
	resp, err := handle(req)
	c.log.add(call{handler: true, client: c.id, kind: req.Kind, startNS: start, endNS: obs.NowNanos()})
	return resp, err
}

// clientOps names the client.<op>_s metric of each protocol request
// kind, in protocol order.
var clientOps = []struct{ kind, op string }{
	{"props/range", "range"},
	{"props/metafeatures", "metafeatures"},
	{"props/importances", "importances"},
	{"eval/prepare", "prepare"},
	{"eval/config", "evaluate"},
	{"fit/final", "fit"},
}

func clientOp(kind string) string {
	for _, c := range clientOps {
		if c.kind == kind {
			return c.op
		}
	}
	return kind
}

// phaseNames are the engine's phase span names, in run order.
var phaseNames = []string{"meta-features", "recommend", "feature-select", "optimize", "final-fit"}

// ledger sums the per-layer costs of the traced runs.
type ledger struct {
	runs        int
	runNS       int64
	phaseNS     map[string]int64
	boServerNS  int64
	roundS      []float64
	attempts    int
	failed      int
	retries     int
	drops       int
	barrierNS   int64
	transportNS int64
	handlerNS   int64
	opNS        map[string]int64
	evalMS      []float64
	bytesDown   int64
	bytesUp     int64
	candMS      []float64
	buildNS     int64
	lookups     int
	hits        int
}

func newLedger() *ledger {
	return &ledger{phaseNS: map[string]int64{}, opNS: map[string]int64{}}
}

// add folds one traced run into the ledger: the engine's spans, read
// with fedtrace.Analyze, the wrappers' call timings, and the run's
// Comms.
func (l *ledger) add(events []obs.Event, calls []call, comms fl.Stats) error {
	rep, err := fedtrace.Analyze(events)
	if err != nil {
		return err
	}
	if rep.RunErr != "" {
		return fmt.Errorf("traced run failed: %s", rep.RunErr)
	}
	l.runs++
	l.runNS += rep.RunDurationNS
	for _, ph := range rep.Phases {
		l.phaseNS[ph.Name] += ph.DurationNS
	}
	l.boServerNS += phaseSelfNS(rep, "optimize")
	for _, rd := range rep.Rounds {
		l.roundS = append(l.roundS, float64(rd.DurationNS)/1e9)
		l.barrierNS += rd.DurationNS - rd.CriticalNS
	}
	for _, cs := range rep.Clients {
		l.attempts += cs.Attempts
		l.failed += cs.Attempts - cs.Calls
		l.retries += cs.Retries
		l.drops += cs.Drops
	}
	for _, ev := range events {
		switch e := ev.(type) {
		case obs.ClientCache:
			l.lookups++
			if e.Hit {
				l.hits++
			}
			l.buildNS += e.BuildNS
		case obs.CandidateEval:
			l.candMS = append(l.candMS, float64(e.EvalNS)/1e6)
		}
	}
	for _, c := range calls {
		d := c.endNS - c.startNS
		if !c.handler {
			l.transportNS += d
			continue
		}
		l.handlerNS += d
		op := clientOp(c.kind)
		l.opNS[op] += d
		if op == "evaluate" {
			l.evalMS = append(l.evalMS, float64(d)/1e6)
		}
	}
	l.bytesDown += comms.BytesDown
	l.bytesUp += comms.BytesUp
	return nil
}

// phaseSelfNS is a phase's duration minus the rounds it drove: the
// server-side work between rounds (for optimize, the GP proposals).
func phaseSelfNS(rep *fedtrace.Report, phase string) int64 {
	var self int64
	for _, ph := range rep.Phases {
		if ph.Name == phase {
			self += ph.DurationNS
		}
	}
	for _, rd := range rep.Rounds {
		if rd.Phase == phase {
			self -= rd.DurationNS
		}
	}
	return self
}

// unexplained is the share of run time no phase span covers.
func (l *ledger) unexplained() float64 {
	var sum int64
	for _, ns := range l.phaseNS {
		sum += ns
	}
	return 1 - float64(sum)/float64(l.runNS)
}

// metrics reports the ledger averaged per traced run, with durations
// multiplied by scale into reference seconds.
func (l *ledger) metrics(scale float64) []metric {
	n := float64(l.runs)
	perRunS := func(ns int64) float64 { return scale * float64(ns) / 1e9 / n }
	var out []metric
	for _, ph := range phaseNames {
		out = append(out, metric{"core.phase." + strings.ReplaceAll(ph, "-", "_") + "_s", perRunS(l.phaseNS[ph]), "s"})
	}
	out = append(out,
		metric{"core.unexplained_frac", l.unexplained(), "ratio"},
		metric{"bayesopt.server_s", perRunS(l.boServerNS), "s"},
		metric{"fl.rounds", float64(len(l.roundS)) / n, "count"},
		metric{"fl.round_s_p50", scale * quantile(l.roundS, 0.5), "s"},
		metric{"fl.round_s_p90", scale * quantile(l.roundS, 0.9), "s"},
		metric{"fl.attempts", float64(l.attempts) / n, "count"},
		metric{"fl.retries", float64(l.retries) / n, "count"},
		metric{"fl.drops", float64(l.drops) / n, "count"},
		metric{"fl.wasted_call_frac", ratio(l.failed, l.attempts), "ratio"},
		metric{"fl.barrier_s", perRunS(l.barrierNS), "s"},
		metric{"codec.roundtrip_s", perRunS(l.transportNS - l.handlerNS), "s"},
		metric{"codec.bytes_down", float64(l.bytesDown) / n, "B"},
		metric{"codec.bytes_up", float64(l.bytesUp) / n, "B"},
	)
	for _, c := range clientOps {
		out = append(out, metric{"client." + c.op + "_s", perRunS(l.opNS[c.op]), "s"})
	}
	out = append(out,
		metric{"client.evaluate_ms_p50", scale * quantile(l.evalMS, 0.5), "ms"},
		metric{"pipeline.candidate_ms_p50", scale * quantile(l.candMS, 0.5), "ms"},
		metric{"pipeline.candidates", float64(len(l.candMS)) / n, "count"},
		metric{"pipeline.build_s", perRunS(l.buildNS), "s"},
		metric{"pipeline.cache_hit_ratio", ratio(l.hits, l.lookups), "ratio"},
	)
	return out
}

func ratio(num, den int) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
