// ETF constituents over a real TCP federation.
//
// This example mirrors the paper's ETF datasets (Table 3's last three
// rows): the clients are constituent stocks of one sector ETF, each a
// distinct but correlated series, and — unlike the in-process
// simulation used elsewhere — every client here runs behind the fl
// package's TCP transport, exactly how a real deployment would be
// wired (the role Flower plays in the paper).
//
//	go run ./examples/stocks
package main

import (
	"fmt"
	"log"
	"time"

	"fedforecaster/internal/core"
	"fedforecaster/internal/fl"
	"fedforecaster/internal/synth"
	"fedforecaster/internal/timeseries"
)

func main() {
	// Generate the Utilities-sector ETF constituents (scaled down).
	var etf synth.EvalDataset
	for _, d := range synth.EvalDatasets() {
		if d.Name == "Utilities Select Sector ETF" {
			etf = d.Scaled(0.4)
		}
	}
	clients, _, err := etf.Generate()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s: %d constituent stocks × %d trading days\n", etf.Name, len(clients), clients[0].Len())

	// Server side: listen for exactly len(clients) TCP connections.
	addrCh := make(chan string, 1)
	type listenResult struct {
		tr  *fl.TCPTransport
		err error
	}
	resCh := make(chan listenResult, 1)
	go func() {
		tr, err := fl.ListenTCP("127.0.0.1:0", len(clients), 30*time.Second, addrCh, fl.WireOpts{})
		resCh <- listenResult{tr, err}
	}()
	addr := <-addrCh
	fmt.Printf("federated server listening on %s\n", addr)

	// Client side: each stock dials in as an independent participant.
	stop := make(chan struct{})
	for i, s := range clients {
		go func(i int, s *timeseries.Series) {
			if err := fl.ServeTCP(addr, core.NewClientNode(s, int64(i)), stop, fl.WireOpts{}); err != nil {
				log.Printf("client %d: %v", i, err)
			}
		}(i, s)
	}
	lr := <-resCh
	if lr.err != nil {
		log.Fatal(lr.err)
	}
	srv := fl.NewServer(lr.tr)
	defer func() {
		close(stop)
		//lint:allow errdrop example teardown at exit; close error is unactionable
		srv.Close()
	}()
	fmt.Printf("%d clients connected\n\n", srv.NumClients())

	cfg := core.DefaultEngineConfig()
	cfg.Iterations = 8
	cfg.Seed = 3
	engine := core.NewEngine(nil, cfg)
	res, err := engine.RunWithServer(srv)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println()
	fmt.Println("best configuration:", res.BestConfig)
	fmt.Printf("global validation loss: %.5f\n", res.BestValidLoss)
	fmt.Printf("held-out test MSE:      %.5f\n", res.TestMSE)
}
