// Command fedtrace analyzes a JSONL telemetry trace produced by
// fedforecaster -trace-out: it reconstructs the causal span forest and
// reports per-phase/per-round/per-client time and byte breakdowns,
// quorum-round critical paths, straggler attribution, and the run's
// waste summary.
//
// Usage:
//
//	fedtrace [flags] [trace.jsonl]
//
// With no file argument (or "-") the trace is read from stdin, so the
// engine can be piped straight into the analyzer.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"fedforecaster/internal/fedtrace"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit the report as JSON instead of text")
	waterfall := flag.Bool("waterfall", false, "render the span forest as a time-aligned waterfall")
	structure := flag.Bool("structure", false, "emit the timestamp-free span tree, without the timing-derived attribution (deterministic at fixed seed)")
	top := flag.Int("top", 0, "keep only the top K stragglers (0 = all)")
	flag.Usage = func() {
		//lint:allow errdrop usage text is best-effort console output
		fmt.Fprintf(flag.CommandLine.Output(), "usage: fedtrace [flags] [trace.jsonl]\n\nReads a fedforecaster -trace-out stream (file, or stdin when omitted or \"-\")\nand reports the run's causal structure: phases, rounds, critical paths,\nstragglers, and waste.\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	var in io.Reader = os.Stdin
	if name := flag.Arg(0); name != "" && name != "-" {
		f, err := os.Open(name)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		in = f
	}

	events, err := fedtrace.ReadEvents(in)
	if err != nil {
		fatal(err)
	}
	if len(events) == 0 {
		fatal(fmt.Errorf("fedtrace: trace holds no known events"))
	}
	rep, err := fedtrace.Analyze(events)
	if err != nil {
		fatal(err)
	}
	if *top > 0 && len(rep.Stragglers) > *top {
		rep.Stragglers = rep.Stragglers[:*top]
	}

	switch {
	case *jsonOut:
		err = rep.WriteJSON(os.Stdout)
	case *waterfall:
		err = rep.WriteWaterfall(os.Stdout)
	case *structure:
		err = rep.WriteStructure(os.Stdout)
	default:
		err = rep.WriteText(os.Stdout)
	}
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
