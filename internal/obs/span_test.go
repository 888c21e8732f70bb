package obs

import "testing"

func TestSpanContextPackParse(t *testing.T) {
	c := SpanContext{Trace: DeriveTrace(42), Span: DeriveSpan(DeriveTrace(42), SpanRun, 0)}
	if !c.Valid() {
		t.Fatal("derived context should be valid")
	}
	packed := PackSpanContext(c)
	if len(packed) != 32 {
		t.Fatalf("packed length = %d, want 32", len(packed))
	}
	for _, r := range packed {
		if !(r >= '0' && r <= '9' || r >= 'a' && r <= 'f') {
			t.Fatalf("packed context %q is not lowercase hex", packed)
		}
	}
	got, ok := ParseSpanContext(packed)
	if !ok || got != c {
		t.Fatalf("round trip = %v, %v; want %v", got, ok, c)
	}
	for _, bad := range []string{"", "abc", packed[:31], packed[:31] + "g"} {
		if _, ok := ParseSpanContext(bad); ok {
			t.Errorf("ParseSpanContext(%q) accepted malformed input", bad)
		}
	}
}

func TestDeriveSpanDeterministicAndDistinct(t *testing.T) {
	tr := DeriveTrace(7)
	if tr != DeriveTrace(7) {
		t.Error("DeriveTrace must be a pure function of the seed")
	}
	if tr == DeriveTrace(8) {
		t.Error("distinct seeds should yield distinct traces")
	}
	a := DeriveSpan(tr, SpanCall, 0)
	if a != DeriveSpan(tr, SpanCall, 0) {
		t.Error("DeriveSpan must be a pure function of its position")
	}
	seen := map[uint64]bool{a: true}
	for _, v := range []uint64{
		DeriveSpan(tr, SpanCall, 1),
		DeriveSpan(tr, SpanAttempt, 0),
		DeriveSpan(a, SpanCall, 0),
	} {
		if v == 0 || seen[v] {
			t.Errorf("span ID %d collides or is zero", v)
		}
		seen[v] = true
	}
}

func TestClientOpNames(t *testing.T) {
	want := map[int]string{
		ClientOpProperties: "properties",
		ClientOpPrepare:    "prepare",
		ClientOpEvaluate:   "evaluate",
		ClientOpFit:        "fit",
		99:                 "op99",
	}
	for code, name := range want {
		if got := ClientOpName(code); got != name {
			t.Errorf("ClientOpName(%d) = %q, want %q", code, got, name)
		}
	}
}

// TestBuildSpanForest covers the reconstructor's contract: children
// under parents, deterministic (Seq, Name, ID) sibling order
// regardless of emission order, orphans surfaced as roots, unclosed
// spans kept open, and span attributes carried from both events.
func TestBuildSpanForest(t *testing.T) {
	tr := DeriveTrace(1)
	run := DeriveSpan(tr, SpanRun, 0)
	phase := DeriveSpan(run, SpanPhase, 2)
	callA := DeriveSpan(phase, SpanCall, 0)
	callB := DeriveSpan(phase, SpanCall, 1)
	orphan := DeriveSpan(12345, SpanRound, 0)

	th := HexID(tr)
	events := []Event{
		SpanStart{Trace: th, Span: HexID(run), Kind: SpanRun, Name: "run", Seq: 0, Client: -1, StartNS: 100},
		SpanStart{Trace: th, Span: HexID(phase), Parent: HexID(run), Kind: SpanPhase, Name: "optimize", Seq: 2, Client: -1, StartNS: 110},
		// Emitted out of order, as concurrent per-client goroutines do.
		SpanStart{Trace: th, Span: HexID(callB), Parent: HexID(phase), Kind: SpanCall, Name: "call", Seq: 1, Client: 1, StartNS: 130},
		SpanStart{Trace: th, Span: HexID(callA), Parent: HexID(phase), Kind: SpanCall, Name: "call", Seq: 0, Client: 0, StartNS: 120},
		SpanEnd{Trace: th, Span: HexID(callA), EndNS: 150, Bytes: 42, Outcome: OutcomeOK},
		SpanEnd{Trace: th, Span: HexID(callB), EndNS: 160, Err: "fl: client dead"},
		SpanEnd{Trace: th, Span: HexID(phase), EndNS: 170},
		// The run span never closes; a crashed process leaves exactly this.
		SpanStart{Trace: th, Span: HexID(orphan), Parent: HexID(DeriveSpan(12345, "nope", 9)), Kind: SpanRound, Name: "stray", Seq: 0, Client: -1, StartNS: 500, Batch: 2, Clients: 4},
		SpanEnd{Trace: th, Span: HexID(orphan), EndNS: 600, Survivors: 3},
	}

	roots := BuildSpanForest(events)
	if len(roots) != 2 {
		t.Fatalf("got %d roots, want run + orphan", len(roots))
	}
	r := roots[0]
	if r.ID != run || r.EndNS != 0 || r.DurationNS() != 0 {
		t.Fatalf("root = %+v, want the open run span", r)
	}
	if len(r.Children) != 1 || r.Children[0].Name != "optimize" {
		t.Fatalf("run children = %+v", r.Children)
	}
	calls := r.Children[0].Children
	if len(calls) != 2 || calls[0].ID != callA || calls[1].ID != callB {
		t.Fatalf("calls out of Seq order: %+v", calls)
	}
	if calls[0].DurationNS() != 30 || calls[1].Err != "fl: client dead" {
		t.Errorf("call spans lost end state: %+v, %+v", calls[0], calls[1])
	}
	if calls[0].Bytes != 42 || calls[0].Outcome != OutcomeOK {
		t.Errorf("call span lost its end attributes: %+v", calls[0])
	}
	if o := roots[1]; o.Name != "stray" {
		t.Errorf("orphan span should surface as a root, got %+v", o)
	} else if o.Batch != 2 || o.Clients != 4 || o.Survivors != 3 {
		t.Errorf("round span attributes = batch %d, clients %d, survivors %d; want 2, 4, 3", o.Batch, o.Clients, o.Survivors)
	}
}
