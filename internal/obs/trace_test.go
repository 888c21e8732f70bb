package obs

import (
	"errors"
	"strings"
	"testing"
)

// TestJSONLGoldenSchema pins the JSON-lines envelope and the field
// names of every event type, span attributes included: offline
// analyzers parse this stream, so extending it is append-only. A fixed
// injected clock makes the output byte-for-byte deterministic.
func TestJSONLGoldenSchema(t *testing.T) {
	var b strings.Builder
	j := NewJSONL(&b)
	j.now = func() int64 { return 1700000000000000000 }

	for _, ev := range []Event{
		SpanStart{Trace: "00000000000000aa", Span: "00000000000000dd", Kind: "run", Name: "run", Client: -1, StartNS: 10000},
		SpanStart{Trace: "00000000000000aa", Span: "00000000000000bb", Parent: "00000000000000cc", Kind: "round", Name: "eval/config", Seq: 3, Client: -1, StartNS: 12000, Batch: 2, Clients: 4},
		SpanStart{Trace: "00000000000000aa", Span: "00000000000000ee", Parent: "00000000000000ff", Kind: "attempt", Name: "attempt", Seq: 1, Client: 1, StartNS: 13000},
		SpanEnd{Trace: "00000000000000aa", Span: "00000000000000ee", Kind: "attempt", Name: "attempt", Client: 1, EndNS: 14000, DurationNS: 1000, Bytes: 96, Outcome: "ok"},
		ClientDropped{Kind: "eval/config", Client: 3, Reason: "fl: client dead"},
		SpanEnd{Trace: "00000000000000aa", Span: "00000000000000bb", Kind: "round", Name: "eval/config", Client: -1, EndNS: 17000, DurationNS: 5000, Survivors: 3},
		BOIteration{Index: 0, Config: "Lasso{alpha: 0.1}", Loss: 0.5},
		ClientCache{Client: 1, Phase: "valid", Hit: false, BuildNS: 700},
		CandidateEval{Client: 1, Index: 0, EvalNS: 300, Loss: 0.5},
		ChaosInject{Client: 2, Fault: "transient"},
		CommsSummary{Rounds: 9, Calls: 36, BytesDown: 4096, BytesUp: 2048, WastedCalls: 2, WastedBytes: 128},
		SpanEnd{Trace: "00000000000000aa", Span: "00000000000000dd", Kind: "run", Name: "run", Client: -1, EndNS: 99000, DurationNS: 89000, Err: "boom"},
	} {
		j.Record(ev)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	const golden = `{"ts":1700000000000000000,"event":"span_start","data":{"trace":"00000000000000aa","span":"00000000000000dd","kind":"run","name":"run","seq":0,"client":-1,"start_ns":10000}}
{"ts":1700000000000000000,"event":"span_start","data":{"trace":"00000000000000aa","span":"00000000000000bb","parent":"00000000000000cc","kind":"round","name":"eval/config","seq":3,"client":-1,"start_ns":12000,"batch":2,"clients":4}}
{"ts":1700000000000000000,"event":"span_start","data":{"trace":"00000000000000aa","span":"00000000000000ee","parent":"00000000000000ff","kind":"attempt","name":"attempt","seq":1,"client":1,"start_ns":13000}}
{"ts":1700000000000000000,"event":"span_end","data":{"trace":"00000000000000aa","span":"00000000000000ee","kind":"attempt","name":"attempt","client":1,"end_ns":14000,"duration_ns":1000,"bytes":96,"outcome":"ok"}}
{"ts":1700000000000000000,"event":"client_dropped","data":{"kind":"eval/config","client":3,"reason":"fl: client dead"}}
{"ts":1700000000000000000,"event":"span_end","data":{"trace":"00000000000000aa","span":"00000000000000bb","kind":"round","name":"eval/config","client":-1,"end_ns":17000,"duration_ns":5000,"survivors":3}}
{"ts":1700000000000000000,"event":"bo_iteration","data":{"index":0,"config":"Lasso{alpha: 0.1}","loss":0.5}}
{"ts":1700000000000000000,"event":"client_cache","data":{"client":1,"phase":"valid","hit":false,"build_ns":700}}
{"ts":1700000000000000000,"event":"candidate_eval","data":{"client":1,"index":0,"eval_ns":300,"loss":0.5}}
{"ts":1700000000000000000,"event":"chaos_inject","data":{"client":2,"fault":"transient"}}
{"ts":1700000000000000000,"event":"comms_summary","data":{"rounds":9,"calls":36,"bytes_down":4096,"bytes_up":2048,"wasted_calls":2,"wasted_bytes":128}}
{"ts":1700000000000000000,"event":"span_end","data":{"trace":"00000000000000aa","span":"00000000000000dd","kind":"run","name":"run","client":-1,"end_ns":99000,"duration_ns":89000,"err":"boom"}}
`
	if got := b.String(); got != golden {
		t.Errorf("JSONL output diverged from the golden schema.\ngot:\n%s\nwant:\n%s", got, golden)
	}
}

// TestJSONLDecodeRoundTrip: every line the golden schema emits must
// decode back into its typed event — DecodeEvent is the read side of
// the same contract.
func TestJSONLDecodeRoundTrip(t *testing.T) {
	ev, err := DecodeEvent("span_start", []byte(`{"trace":"aa","span":"bb","kind":"round","name":"eval/config","seq":3,"client":-1,"start_ns":12000}`))
	if err != nil {
		t.Fatal(err)
	}
	start, ok := ev.(SpanStart)
	if !ok || start.Name != "eval/config" || start.Seq != 3 || start.Client != -1 {
		t.Fatalf("DecodeEvent(span_start) = %#v", ev)
	}
	if ev, err := DecodeEvent("some_future_event", []byte(`{}`)); ev != nil || err != nil {
		t.Fatalf("unknown events must be skipped, got %v, %v", ev, err)
	}
	if _, err := DecodeEvent("span_end", []byte(`{broken`)); err == nil {
		t.Fatal("malformed payload must error")
	}
}

// failWriter fails after n successful writes.
type failWriter struct{ n int }

func (w *failWriter) Write(p []byte) (int, error) {
	if w.n <= 0 {
		return 0, errors.New("disk full")
	}
	w.n--
	return len(p), nil
}

// TestJSONLCloseSurfacesFlushError: with buffering, a failing
// underlying writer is invisible to Record — the loss would be silent
// without Close surfacing the flush error.
func TestJSONLCloseSurfacesFlushError(t *testing.T) {
	j := NewJSONL(&failWriter{n: 0})
	j.Record(BOIteration{Config: "a"})
	if err := j.Err(); err != nil {
		t.Fatalf("buffered record must not touch the writer, got %v", err)
	}
	err := j.Close()
	if err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Fatalf("Close = %v, want the flush error", err)
	}
	// The error sticks: later events are dropped, Close stays
	// idempotent and keeps reporting the first failure.
	j.Record(BOIteration{Config: "b"})
	if got := j.Close(); got != err {
		t.Errorf("second Close = %v, want retained %v", got, err)
	}
	if got := j.Err(); got != err {
		t.Errorf("Err = %v, want retained %v", got, err)
	}
}

// TestJSONLRetainsFirstError: once the buffer spills mid-run and the
// writer fails, the first error is retained and later events dropped.
func TestJSONLRetainsFirstError(t *testing.T) {
	j := NewJSONL(&failWriter{n: 0})
	// Overflow the buffer so Record itself hits the writer.
	big := BOIteration{Config: strings.Repeat("x", jsonlBufferSize)}
	j.Record(big)
	j.Record(big)
	err := j.Err()
	if err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Fatalf("Err = %v, want the retained write error", err)
	}
	j.Record(BOIteration{Config: "c"})
	if got := j.Close(); got != err {
		t.Errorf("Close changed the retained error: %v", got)
	}
}
