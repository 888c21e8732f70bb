package obs

import "strconv"

// Test-only helpers: ParseSpanContext checks PackSpanContext's shape
// by round trip (the client only tests whether the trace key is
// present), and Err reads the JSONL sink's retained error before Close.

// ParseSpanContext reverses PackSpanContext. ok is false for
// malformed strings (wrong length, non-hex) — a transport speaking an
// older protocol simply yields no context.
func ParseSpanContext(s string) (c SpanContext, ok bool) {
	if len(s) != 32 {
		return SpanContext{}, false
	}
	tr, err := strconv.ParseUint(s[:16], 16, 64)
	if err != nil {
		return SpanContext{}, false
	}
	sp, err := strconv.ParseUint(s[16:], 16, 64)
	if err != nil {
		return SpanContext{}, false
	}
	return SpanContext{Trace: tr, Span: sp}, true
}

// Err reports the first write or encode error, if any. A clean Err
// does not mean the sink is durable — buffered lines only reach the
// underlying writer at Close.
func (j *JSONL) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}
