package fl

import (
	"runtime"
	"testing"
	"time"
)

// TestServeTCPStopWatcherNoLeak is the regression test for the stop-
// watcher goroutine leak: ServeTCP used to spawn a watcher blocked on
// `<-stop` for the connection's whole lifetime, so a caller that never
// closed stop (reconnect loops reuse one channel across dials) leaked
// one goroutine per serve. The watcher now also selects on a channel
// closed when the serve call returns. The test drives several
// serve/close cycles against a stop channel that is deliberately never
// closed and requires the goroutine count to settle back to baseline.
func TestServeTCPStopWatcherNoLeak(t *testing.T) {
	base := runtime.NumGoroutine()
	stop := make(chan struct{}) // never closed: the leak trigger

	const cycles = 5
	for i := 0; i < cycles; i++ {
		type listenResult struct {
			tr  *TCPTransport
			err error
		}
		resCh := make(chan listenResult, 1)
		addrCh := make(chan string, 1)
		go func() {
			tr, err := ListenTCP("127.0.0.1:0", 1, 5*time.Second, addrCh, WireOpts{})
			resCh <- listenResult{tr, err}
		}()
		addr := <-addrCh
		serveDone := make(chan error, 1)
		go func() {
			serveDone <- ServeTCP(addr, &echoClient{id: i}, stop, WireOpts{})
		}()
		res := <-resCh
		if res.err != nil {
			t.Fatal(res.err)
		}
		// Closing the transport closes the client connection; the serve
		// loop observes it and returns. Before the fix each cycle left
		// its watcher goroutine behind.
		if err := res.tr.Close(); err != nil {
			t.Fatalf("cycle %d: close: %v", i, err)
		}
		if err := <-serveDone; err != nil {
			t.Fatalf("cycle %d: serve: %v", i, err)
		}
	}

	// The watchers exit asynchronously (close(watchDone) runs as the
	// serve call unwinds); poll briefly for the count to settle.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if runtime.NumGoroutine() <= base {
			return
		}
		if time.Now().After(deadline) {
			break
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: baseline %d, now %d (stop-watcher not terminated)",
		base, runtime.NumGoroutine())
}
