package obs

import (
	"bufio"
	"encoding/json"
	"io"
	"sync"
)

// jsonlEnvelope is the stable JSON-lines record shape: a wall-clock
// timestamp (the only nondeterministic top-level field), the event
// name, and the event payload under "data" with the field names fixed
// by each event struct's json tags. TestJSONLGoldenSchema pins the
// schema; extending it is append-only (new events, new optional
// fields) so offline analyzers keep working across versions.
type jsonlEnvelope struct {
	TS    int64  `json:"ts"`
	Event string `json:"event"`
	Data  Event  `json:"data"`
}

// jsonlBufferSize sizes the write buffer: span-heavy traces emit
// hundreds of small lines per round, and a syscall per line dominates
// the sink's cost without buffering.
const jsonlBufferSize = 64 << 10

// JSONL is a Recorder writing one JSON object per event to an
// io.Writer — the `-trace-out file.jsonl` sink, mirroring fedlint's
// -json mode: a schema-stable stream a run can be replayed and
// analyzed from offline. Writes are buffered and serialized by an
// internal mutex; the first write or encode error is retained and
// reported by Err/Close (later events are dropped once the sink has
// failed). Callers must Close the sink when the run ends: buffering
// means the final lines — and any error writing them — only surface
// at flush.
type JSONL struct {
	mu  sync.Mutex
	buf *bufio.Writer // guarded by mu
	err error         // guarded by mu
	// now supplies timestamps; tests inject a fixed clock so golden
	// output is deterministic.
	now func() int64
}

// NewJSONL returns a JSON-lines sink over w. Close it to flush.
func NewJSONL(w io.Writer) *JSONL {
	return &JSONL{buf: bufio.NewWriterSize(w, jsonlBufferSize), now: NowNanos}
}

// Record implements Recorder.
func (j *JSONL) Record(ev Event) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return
	}
	line, err := json.Marshal(jsonlEnvelope{TS: j.now(), Event: ev.EventName(), Data: ev})
	if err != nil {
		j.err = err
		return
	}
	if _, err := j.buf.Write(append(line, '\n')); err != nil {
		j.err = err
	}
}

// Close flushes the buffer and reports the first error seen across
// the sink's lifetime, including one surfacing only now from the
// final flush — the write that was silently lost before this method
// existed. Close is idempotent: calling it again re-flushes and
// reports the same retained error.
func (j *JSONL) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.buf.Flush(); err != nil && j.err == nil {
		j.err = err
	}
	return j.err
}
