package fl

import (
	"testing"

	"fedforecaster/internal/fl/codec"
	"fedforecaster/internal/obs"
)

// stampClient answers every call with a large payload and reports the
// window of its own handler as a client-local op span, stamped with
// the telemetry clock inside the handler.
type stampClient struct{ floats int }

func (c stampClient) Properties(req Message) (Message, error) { return c.answer(req) }
func (c stampClient) Fit(req Message) (Message, error)        { return c.answer(req) }
func (c stampClient) Evaluate(req Message) (Message, error)   { return c.answer(req) }

func (c stampClient) answer(Message) (Message, error) {
	startNS := obs.NowNanos()
	resp := NewMessage("stamp")
	payload := make([]float64, c.floats)
	for i := range payload {
		payload[i] = float64(i) / 7
	}
	resp.Floats["payload"] = payload
	endNS := obs.NowNanos()
	resp.Ints[codec.SpansKey] = []int{obs.ClientOpEvaluate, int(startNS), int(endNS - startNS)}
	return resp, nil
}

// TestAttemptSpanContainsClientOp: an attempt span is the window the
// transport call actually took, so the op a client ran inside that
// call lies inside its attempt span with no slack at all. The large
// response takes milliseconds to size for the attempt's byte count; a
// window rebuilt from an end clock read after that sizing would start
// later than the op. Rounds without a span context record no spans.
func TestAttemptSpanContainsClientOp(t *testing.T) {
	srv := NewServer(NewInProcWire([]Client{stampClient{floats: 1 << 19}, stampClient{floats: 1 << 19}}, WireOpts{}))
	defer srv.Close()
	rec := &captureRecorder{}
	srv.SetRecorder(rec)

	round := obs.SpanContext{Trace: 1, Span: 2}
	if _, _, err := srv.BroadcastQuorum(NewMessage("eval/stamp"), QuorumConfig{Span: round}); err != nil {
		t.Fatal(err)
	}
	forest := obs.BuildSpanForest(rec.events)
	var ops int
	for _, call := range forest {
		if call.Kind != obs.SpanCall {
			t.Fatalf("root span %q, want only call spans under the round context", call.Kind)
		}
		for _, att := range call.Children {
			if att.StartNS < call.StartNS || att.EndNS > call.EndNS {
				t.Errorf("client %d attempt [%d,%d] escapes its call [%d,%d]", att.Client, att.StartNS, att.EndNS, call.StartNS, call.EndNS)
			}
			for _, op := range att.Children {
				ops++
				if op.StartNS < att.StartNS || op.EndNS > att.EndNS {
					t.Errorf("client %d op [%d,%d] escapes its attempt [%d,%d] (start %d ns early, end %d ns late)",
						op.Client, op.StartNS, op.EndNS, att.StartNS, att.EndNS, att.StartNS-op.StartNS, op.EndNS-att.EndNS)
				}
			}
		}
	}
	if ops != 2 {
		t.Fatalf("client op spans = %d, want one per client", ops)
	}

	n := len(rec.events)
	if _, _, err := srv.BroadcastQuorum(NewMessage("eval/stamp"), QuorumConfig{}); err != nil {
		t.Fatal(err)
	}
	if extra := rec.events[n:]; len(extra) != 0 {
		t.Errorf("an untraced round recorded %d events, want none", len(extra))
	}
}
