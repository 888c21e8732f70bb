// Command fedbench is the end-to-end benchmark of the FedForecaster
// engine. Each workload runs as a closed loop — one caller, one engine
// run at a time — in a process of its own:
//
//	fedbench -workload paper-seq -seed 1 -seconds 20 -trace 0
//
// prints the end-to-end metrics of an untraced pass, and -trace 1 the
// per-layer metrics of a traced pass. The last line of standard output
// is one JSON object: {"correct", "attempted", "failed", "metrics"}.
// Without -workload, every workload runs untraced then traced, each in
// a child process, and one JSON line per pass is printed, tagged with
// its workload, seed and trace flag. Two files of such lines compare
// against the bounds in BENCHMARK.json:
//
//	fedbench -compare a.jsonl b.jsonl
//
// README.md describes the workloads and metrics.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

// value is one metric as printed: {"value": v, "unit": u}.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line a single-workload run prints last.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// tagged is a result line of the all-workloads mode and of the files
// -compare reads.
type tagged struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	result
}

func run(args []string) int {
	fs := flag.NewFlagSet("fedbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run; empty runs every workload, each in its own process")
	seed := fs.Int64("seed", 1, "workload seed: input i of the run is federation (seed+i) mod the corpus size")
	seconds := fs.Int("seconds", 0, "how long the untraced pass measures; 0 takes run_seconds from -benchmark")
	trace := fs.Int("trace", 0, "0 reports end-to-end metrics, 1 per-layer metrics from a traced pass")
	compare := fs.Bool("compare", false, "compare two result files: fedbench -compare a.jsonl b.jsonl")
	benchPath := fs.String("benchmark", "BENCHMARK.json", "benchmark definition: metric bounds and run_seconds")
	kbPath := fs.String("kb", "kb.json", "knowledge base the meta-model is trained on")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "fedbench:", err)
		return 1
	}
	if *compare {
		if fs.NArg() != 2 {
			return fail(fmt.Errorf("-compare takes two result files, got %d arguments", fs.NArg()))
		}
		worse, err := compareFiles(*benchPath, fs.Arg(0), fs.Arg(1))
		if err != nil {
			return fail(err)
		}
		if worse {
			return 1
		}
		return 0
	}
	if *trace != 0 && *trace != 1 {
		return fail(fmt.Errorf("-trace %d: want 0 or 1", *trace))
	}
	if *seconds <= 0 {
		spec, err := loadSpec(*benchPath)
		if err != nil {
			return fail(err)
		}
		*seconds = spec.RunSeconds
	}
	if *name == "" {
		return runAll(*seed, *seconds)
	}
	w, err := findWorkload(*name)
	if err != nil {
		return fail(err)
	}
	e, err := setUp(w, *seed, *kbPath)
	if err != nil {
		return fail(err)
	}
	res := result{Correct: true, Metrics: map[string]value{}}
	var ms []metric
	if *trace == 0 {
		var p *pass
		p, err = e.loop(e.inputs, time.Duration(*seconds)*time.Second)
		if err == nil {
			res.Attempted, res.Failed = len(p.runs), p.failed()
			fmt.Fprintf(os.Stderr, "%s: %d runs in %.1f s\n", w.name, len(p.runs), p.elapsed.Seconds())
			ms, err = e.endToEnd(p)
		}
	} else {
		ms, res.Attempted, res.Failed, err = e.traced(tracedRuns)
	}
	if err != nil {
		// A broken correctness rule still prints a result, marked
		// incorrect, before exiting non-zero.
		res.Correct = false
		fmt.Fprintln(os.Stderr, "fedbench:", err)
	}
	for _, m := range ms {
		res.Metrics[m.name] = value{m.value, m.unit}
		fmt.Fprintf(os.Stderr, "  %-28s %14.6g %s\n", m.name, m.value, m.unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return fail(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// runAll runs every workload untraced and then traced, each pass in a
// child process so that no pass inherits another's heap, and prints
// one tagged JSON line per pass.
func runAll(seed int64, seconds int) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "fedbench:", err)
		return 1
	}
	status := 0
	for _, w := range workloads {
		for trace := 0; trace <= 1; trace++ {
			cmd := exec.Command(exe, "-workload", w.name, "-seed", strconv.FormatInt(seed, 10),
				"-seconds", strconv.Itoa(seconds), "-trace", strconv.Itoa(trace))
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				fmt.Fprintf(os.Stderr, "fedbench: %s trace %d: %v\n", w.name, trace, err)
				status = 1
			}
			t := tagged{Workload: w.name, Seed: seed, Trace: trace}
			if err := json.Unmarshal(lastLine(out), &t.result); err != nil {
				fmt.Fprintf(os.Stderr, "fedbench: %s trace %d: no result line: %v\n", w.name, trace, err)
				status = 1
				continue
			}
			line, err := json.Marshal(t)
			if err != nil {
				fmt.Fprintln(os.Stderr, "fedbench:", err)
				return 1
			}
			fmt.Println(string(line))
		}
	}
	return status
}

func lastLine(out []byte) []byte {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		if l := bytes.TrimSpace(sc.Bytes()); len(l) > 0 {
			last = append(last[:0], l...)
		}
	}
	return last
}
