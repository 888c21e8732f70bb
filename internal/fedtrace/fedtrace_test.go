package fedtrace_test

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"fedforecaster/internal/core"
	"fedforecaster/internal/fedtrace"
	"fedforecaster/internal/fl"
	"fedforecaster/internal/obs"
	"fedforecaster/internal/search"
	"fedforecaster/internal/timeseries"
)

// traceRun drives one seeded 4-client chaos run — a deterministic
// flapper (client 1), a mid-run death (client 2), and a permanent
// straggler (client 3) — collecting the full event stream in memory.
func traceRun(t *testing.T, seed int64) []obs.Event {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	vals := make([]float64, 1200)
	vals[0] = 20
	for i := 1; i < len(vals); i++ {
		season := 3 * math.Sin(2*math.Pi*float64(i)/24)
		vals[i] = 20 + 0.7*(vals[i-1]-20) + season + 0.5*rng.NormFloat64()
	}
	series, err := timeseries.New("fed", vals, timeseries.RateDaily).PartitionClients(4, 50)
	if err != nil {
		t.Fatal(err)
	}

	cfg := core.DefaultEngineConfig()
	cfg.Seed = seed
	cfg.Iterations = 4
	cfg.MinClientFraction = 0.5
	cfg.MaxRetries = 2
	// Lasso only: keeps client compute far below the injected delay so
	// critical-path attribution is strictly delay-dominated.
	var spaces []search.Space
	for _, sp := range search.DefaultSpaces() {
		if sp.Algorithm == search.AlgoLasso {
			spaces = append(spaces, sp)
		}
	}
	cfg.Spaces = spaces

	col := fedtrace.NewCollector()
	cfg.Recorder = col

	nodes := make([]fl.Client, len(series))
	for i, s := range series {
		nodes[i] = core.NewClientNode(s, seed+int64(i)*101)
	}
	chaos := fl.NewChaos(fl.NewInProcWire(nodes, fl.WireOpts{}), seed)
	chaos.SetRecorder(col)
	chaos.SetFaults(1, fl.ClientFaults{FailFirst: 2})
	chaos.SetFaults(2, fl.ClientFaults{DieAfter: 5})
	chaos.SetFaults(3, fl.ClientFaults{Delay: 400 * time.Millisecond, DelayProb: 1})
	srv := fl.NewServer(chaos)
	defer srv.Close()

	eng := core.NewEngine(nil, cfg)
	if _, err := eng.RunWithServer(srv); err != nil {
		t.Fatalf("chaos run failed: %v", err)
	}
	return col.Events()
}

// sharedRun caches the first seed-7 run: three tests analyze the same
// stream, and the determinism test compares it against a fresh run.
var (
	sharedOnce   sync.Once
	sharedEvents []obs.Event
)

func sharedRun(t *testing.T) []obs.Event {
	sharedOnce.Do(func() { sharedEvents = traceRun(t, 7) })
	if sharedEvents == nil {
		t.Fatal("shared chaos run failed in an earlier test")
	}
	return sharedEvents
}

// TestAnalyzeChaosRun is the tentpole acceptance: the analyzer
// reconstructs a complete span forest from a seeded chaos run — every
// client call, including retried attempts, sits under its round span;
// client-local op spans align with the server-side attempt spans that
// delivered them — and the straggler/critical-path attribution names
// the injected delay client.
func TestAnalyzeChaosRun(t *testing.T) {
	events := sharedRun(t)
	rep, err := fedtrace.Analyze(events)
	if err != nil {
		t.Fatal(err)
	}

	// Count ground truth from the raw stream.
	var calls, okCalls, drops int
	for _, ev := range events {
		switch e := ev.(type) {
		case obs.SpanEnd:
			if e.Kind == obs.SpanAttempt {
				calls++
				if e.Outcome == obs.OutcomeOK {
					okCalls++
				}
			}
		case obs.ClientDropped:
			drops++
		}
	}
	if calls == 0 || okCalls == calls {
		t.Fatalf("fault schedule produced no failed attempts: %d calls, %d ok", calls, okCalls)
	}
	if drops == 0 {
		t.Fatal("dead client was never dropped")
	}

	// Forest completeness: exactly one run root holding five phases;
	// every attempt event has its span under a round span; every
	// delivering attempt carries its client-local op span.
	var runRoots int
	for _, root := range rep.Forest {
		if root.Kind == obs.SpanRun {
			runRoots++
		}
	}
	if runRoots != 1 || len(rep.Forest) != 1 {
		t.Fatalf("forest roots = %d (%d run), want exactly 1 run root", len(rep.Forest), runRoots)
	}
	if len(rep.Phases) != 5 {
		t.Fatalf("phases = %d, want 5", len(rep.Phases))
	}

	var attemptSpans, opSpans, retriedCalls int
	for _, root := range rep.Forest {
		var walk func(n *obs.SpanNode)
		walk = func(n *obs.SpanNode) {
			switch n.Kind {
			case obs.SpanCall:
				if len(n.Children) > 1 {
					retriedCalls++
					for _, att := range n.Children[:len(n.Children)-1] {
						if att.Err == "" {
							t.Errorf("non-final attempt %d of client %d call has no error", att.Seq, n.Client)
						}
					}
				}
			case obs.SpanAttempt:
				attemptSpans++
			case obs.SpanClient:
				opSpans++
			}
			for _, c := range n.Children {
				walk(c)
			}
		}
		walk(root)
	}
	if attemptSpans != calls {
		t.Errorf("attempt spans in the forest = %d, want one per attempt span_end (%d)", attemptSpans, calls)
	}
	if opSpans != okCalls {
		t.Errorf("client op spans = %d, want one per delivered call (%d)", opSpans, okCalls)
	}
	if retriedCalls == 0 {
		t.Error("no call span holds retried attempts despite FailFirst faults")
	}

	// Client-local spans align with the server-side attempt that
	// carried them: the op window nests inside the attempt window, with
	// no slack — the attempt window is the pair of clock reads around
	// the transport call that ran the op.
	for _, root := range rep.Forest {
		var walk func(n *obs.SpanNode)
		walk = func(n *obs.SpanNode) {
			if n.Kind == obs.SpanAttempt {
				for _, op := range n.Children {
					if op.StartNS < n.StartNS || op.StartNS+op.DurationNS() > n.EndNS {
						t.Errorf("client op %q [%d,%d] escapes attempt window [%d,%d]",
							op.Name, op.StartNS, op.StartNS+op.DurationNS(), n.StartNS, n.EndNS)
					}
					if op.Client != n.Client {
						t.Errorf("op client %d under attempt for client %d", op.Client, n.Client)
					}
				}
			}
			for _, c := range n.Children {
				walk(c)
			}
		}
		walk(root)
	}

	// Attribution: the injected 80ms straggler dominates every round it
	// survives; the ranking must lead with it and carry its chaos tag.
	if len(rep.Stragglers) == 0 {
		t.Fatal("no stragglers attributed")
	}
	if top := rep.Stragglers[0]; top.Client != 3 {
		t.Errorf("top straggler = client %d, want the delayed client 3", top.Client)
	} else if top.Chaos["delay"] == 0 {
		t.Errorf("top straggler chaos tags = %v, want delay injections", top.Chaos)
	}
	for _, rd := range rep.Rounds {
		if rd.CriticalClient < 0 {
			t.Errorf("round %d (%s) has no critical path", rd.Index, rd.Kind)
		}
	}

	// Per-client ledger agrees with the stream, and waste is visible.
	var cl2 *fedtrace.ClientStats
	for i := range rep.Clients {
		if rep.Clients[i].Client == 2 {
			cl2 = &rep.Clients[i]
		}
	}
	if cl2 == nil || cl2.Drops == 0 {
		t.Errorf("client 2 drops not attributed: %+v", cl2)
	}
	if rep.Waste == nil || rep.Waste.WastedCalls == 0 {
		t.Errorf("waste summary missing or empty: %+v", rep.Waste)
	}
}

// TestStructureDeterministic pins the acceptance bar for deterministic
// tracing: two runs at the same seed yield byte-identical structural
// output (tree shape, names — timestamps excluded), both from the live
// collector and through a JSONL round trip.
func TestStructureDeterministic(t *testing.T) {
	structure := func(events []obs.Event) string {
		t.Helper()
		rep, err := fedtrace.Analyze(events)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := rep.WriteStructure(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}

	events := sharedRun(t)
	first := structure(events)
	second := structure(traceRun(t, 7))
	if first != second {
		t.Errorf("structural output differs between same-seed runs:\n--- first ---\n%s\n--- second ---\n%s", first, second)
	}

	// The JSONL round trip (value events → envelope → value events)
	// must describe the same structure.
	var jsonl bytes.Buffer
	sink := obs.NewJSONL(&jsonl)
	for _, ev := range events {
		sink.Record(ev)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	decoded, err := fedtrace.ReadEvents(&jsonl)
	if err != nil {
		t.Fatal(err)
	}
	if got := structure(decoded); got != first {
		t.Errorf("JSONL round-trip structure differs from live structure")
	}

	rep, err := fedtrace.Analyze(events)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Stragglers) == 0 || rep.Stragglers[0].Client != 3 {
		t.Errorf("stragglers = %+v, want client 3 ranked first", rep.Stragglers)
	}
}

// TestRenderersOnChaosRun smoke-checks the remaining renderers on a
// real report: text mentions every phase and the waste line, JSON is
// the machine contract, the waterfall emits one aligned row per span.
func TestRenderersOnChaosRun(t *testing.T) {
	rep, err := fedtrace.Analyze(sharedRun(t))
	if err != nil {
		t.Fatal(err)
	}

	var text bytes.Buffer
	if err := rep.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"meta-features", "optimize", "final-fit", "stragglers:", "waste:", "client 3"} {
		if !strings.Contains(text.String(), want) {
			t.Errorf("text report missing %q", want)
		}
	}

	var wf bytes.Buffer
	if err := rep.WriteWaterfall(&wf); err != nil {
		t.Fatal(err)
	}
	var spans int
	for _, root := range rep.Forest {
		var walk func(n *obs.SpanNode)
		walk = func(n *obs.SpanNode) {
			spans++
			for _, c := range n.Children {
				walk(c)
			}
		}
		walk(root)
	}
	if rows := strings.Count(wf.String(), "\n"); rows != spans {
		t.Errorf("waterfall rows = %d, want one per span (%d)", rows, spans)
	}
}
