package main

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"

	"fedforecaster/internal/core"
	"fedforecaster/internal/fedtrace"
	"fedforecaster/internal/metalearn"
)

const (
	// corpusSize federations are a workload's inputs. A run measures
	// whole passes over all of them, so every seed measures the same
	// inputs in another order: run-to-run spread is the machine's, not
	// the inputs'. The count-derived metrics (MSE, bytes, rounds) are
	// taken over the first pass and are the same for every seed.
	corpusSize = 60
	// tracedRuns is how many of the run's first inputs the traced pass
	// re-runs.
	tracedRuns = 20
	// setups is how many times a run sets up; setup_s is their median.
	setups = 7
	// metaSeed seeds the meta-model: the model is part of the system
	// under test, not of its inputs, so it does not follow -seed.
	metaSeed = 1
)

// metric is one named measurement with its unit.
type metric struct {
	name  string
	value float64
	unit  string
}

// env is what set-up produces: the run's inputs, in the seed's order,
// and the meta-model, with each set-up's measured durations and the
// reference kernel's reading before it.
type env struct {
	w        workload
	inputs   []input
	meta     *metalearn.MetaModel
	ref      *refKernel
	setupRef []refReading
	setupS   []float64
	trainS   []float64
}

// setUp generates the corpus, trains the meta-model (when the workload
// uses one) and does one warm-up run, setups times over, timing each.
func setUp(w workload, seed int64, kbPath string) (*env, error) {
	e := &env{w: w, ref: newRefKernel()}
	for r := 0; r < setups; r++ {
		runtime.GC()
		e.setupRef = append(e.setupRef, e.ref.read())
		start := time.Now()
		corpus, err := w.corpus(corpusSize)
		if err != nil {
			return nil, err
		}
		var meta *metalearn.MetaModel
		if w.meta {
			kb, err := metalearn.Load(kbPath)
			if err != nil {
				return nil, fmt.Errorf("loading knowledge base: %w", err)
			}
			clf, err := metalearn.NewClassifier("Random Forest", metaSeed)
			if err != nil {
				return nil, err
			}
			trainStart := time.Now()
			if meta, err = metalearn.TrainMetaModel(kb, clf); err != nil {
				return nil, err
			}
			e.trainS = append(e.trainS, time.Since(trainStart).Seconds())
		}
		// The warm-up runs federation 0 whatever the seed, so that set-up
		// time does not depend on it.
		if _, err := w.run(corpus[0], meta, nil); err != nil {
			return nil, fmt.Errorf("warm-up run: %w", err)
		}
		e.setupS = append(e.setupS, time.Since(start).Seconds())
		e.inputs, e.meta = order(corpus, seed), meta
	}
	return e, nil
}

// inRefSeconds converts durations measured during set-up, one per
// set-up, into reference seconds.
func (e *env) inRefSeconds(ds []float64) []float64 {
	wallF, _ := refFactors(e.setupRef)
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = wallF[i] * d
	}
	return out
}

// usage is a snapshot of the process's CPU time and Go heap counters.
type usage struct {
	wall    time.Time
	cpuS    float64
	alloc   uint64
	gcs     uint32
	pauseNS uint64
}

func readUsage() usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{
		wall:    time.Now(),
		cpuS:    cpuSeconds(),
		alloc:   ms.TotalAlloc,
		gcs:     ms.NumGC,
		pauseNS: ms.PauseTotalNs,
	}
}

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	//lint:allow errdrop getrusage(RUSAGE_SELF) fails only on a bad pointer, and this one is valid
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru
}

// cpuSeconds is the process's user+sys CPU time.
func cpuSeconds() float64 {
	ru := rusage()
	return tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
}

func tvSeconds(tv syscall.Timeval) float64 { return float64(tv.Sec) + float64(tv.Usec)/1e6 }

// peakRSSMB is the process's maximum resident set size (Linux reports
// ru_maxrss in KiB).
func peakRSSMB() float64 { return float64(rusage().Maxrss) / 1024 }

// sample is one untraced run with the reference kernel's reading
// taken just before it. Its durations are as measured.
type sample struct {
	res     *core.Result
	err     error
	configs int // configurations evaluated
	ref     refReading
	wallS   float64
	cpuS    float64
	pauseS  float64
	alloc   uint64
	gcs     uint32
}

func (e *env) measure(in input) sample {
	// A full collection first, so that no run pays for the garbage of
	// the one before it and the reference kernel is never timed while a
	// collection is under way. Without it a change that allocates more
	// would slow the kernel, and so shrink the factor its own run times
	// are scaled by.
	runtime.GC()
	ref := e.ref.read()
	from := readUsage()
	res, err := e.w.run(in, e.meta, nil)
	to := readUsage()
	configs := 0
	if err == nil {
		configs = res.Iterations
	}
	return sample{
		res:     res,
		err:     err,
		configs: configs,
		ref:     ref,
		wallS:   to.wall.Sub(from.wall).Seconds(),
		cpuS:    to.cpuS - from.cpuS,
		pauseS:  float64(to.pauseNS-from.pauseNS) / 1e9,
		alloc:   to.alloc - from.alloc,
		gcs:     to.gcs - from.gcs,
	}
}

// pass is a closed-loop sequence of untraced runs.
type pass struct {
	runs    []sample
	results []*core.Result // first-pass result per input; nil when that run failed
	elapsed time.Duration
}

// loop runs whole passes over inputs, one run after another: one pass,
// then more while another pass would end nearer the budget than
// stopping does. A result that breaks a correctness rule stops the loop
// with an error.
func (e *env) loop(inputs []input, budget time.Duration) (*pass, error) {
	p := &pass{results: make([]*core.Result, len(inputs))}
	start := time.Now()
	for passes := 1; ; passes++ {
		for i, in := range inputs {
			s := e.measure(in)
			if s.err == nil {
				if err := e.w.check(s.res); err != nil {
					return nil, fmt.Errorf("federation seeded %d: %w", in.seed, err)
				}
				if passes == 1 {
					p.results[i] = s.res
				}
			}
			s.res = nil // the first pass's results are all that is kept
			p.runs = append(p.runs, s)
		}
		p.elapsed = time.Since(start)
		if p.elapsed+p.elapsed/time.Duration(2*passes) >= budget {
			break
		}
	}
	return p, nil
}

// failed counts the runs that returned an error.
func (p *pass) failed() int {
	n := 0
	for _, s := range p.runs {
		if s.err != nil {
			n++
		}
	}
	return n
}

// check enforces the rules every run's result must meet.
func (w workload) check(res *core.Result) error {
	if res.Iterations != w.iters || len(res.History) != res.Iterations {
		return fmt.Errorf("ran %d iterations with %d history records, want %d", res.Iterations, len(res.History), w.iters)
	}
	if !positiveFinite(res.TestMSE) || !positiveFinite(res.BestValidLoss) {
		return fmt.Errorf("test MSE %v, best valid loss %v: want finite and positive", res.TestMSE, res.BestValidLoss)
	}
	return nil
}

func positiveFinite(v float64) bool { return v > 0 && !math.IsInf(v, 1) }

// sameResult checks that observing a run did not change it.
func sameResult(traced, plain *core.Result) error {
	switch {
	case math.Float64bits(traced.TestMSE) != math.Float64bits(plain.TestMSE):
		return fmt.Errorf("test MSE %v traced, %v untraced", traced.TestMSE, plain.TestMSE)
	case traced.BestConfig.String() != plain.BestConfig.String():
		return fmt.Errorf("best config %s traced, %s untraced", traced.BestConfig, plain.BestConfig)
	case traced.Comms != plain.Comms:
		return fmt.Errorf("comms %+v traced, %+v untraced", traced.Comms, plain.Comms)
	}
	return nil
}

// endToEnd reports the untraced pass as the metrics a user sees.
func (e *env) endToEnd(p *pass) ([]metric, error) {
	var mse, bytes, rounds []float64
	for _, r := range p.results {
		if r == nil {
			continue
		}
		mse = append(mse, r.TestMSE)
		bytes = append(bytes, float64(r.Comms.BytesDown+r.Comms.BytesUp))
		rounds = append(rounds, float64(r.Comms.Rounds))
	}
	refs := make([]refReading, len(p.runs))
	for i, s := range p.runs {
		refs[i] = s.ref
	}
	wallF, cpuF := refFactors(refs)
	var wall []float64
	var busyS, cpuS float64
	var alloc uint64
	configs := 0
	for i, s := range p.runs {
		busyS += wallF[i] * s.wallS
		cpuS += cpuF[i] * s.cpuS
		alloc += s.alloc
		configs += s.configs
		if s.err == nil {
			wall = append(wall, wallF[i]*s.wallS)
		}
	}
	if len(mse) == 0 {
		return nil, errors.New("every run failed")
	}
	runs := float64(len(p.runs))
	return []metric{
		{"setup_s", quantile(e.inRefSeconds(e.setupS), 0.5), "s"},
		{"run_s_p50", quantile(wall, 0.5), "s"},
		{"run_s_p90", quantile(wall, 0.9), "s"},
		{"configs_per_s", float64(configs) / busyS, "1/s"},
		{"cpu_s_per_run", cpuS / runs, "s"},
		{"test_mse_p50", quantile(mse, 0.5), "mse"},
		{"bytes_per_run", mean(bytes), "B"},
		{"rounds_per_run", mean(rounds), "count"},
		{"alloc_mb_per_run", float64(alloc) / 1e6 / runs, "MB"},
		{"peak_rss_mb", peakRSSMB(), "MB"},
	}, nil
}

// traced runs each of the first n inputs untraced and then traced,
// back to back so that machine drift hits both alike, checks that the
// traced run reproduces its untraced twin bit for bit, and reports the
// per-layer ledger of the traced runs. The Go runtime metrics come from
// the untraced runs. It returns the runs attempted and failed.
func (e *env) traced(n int) (ms []metric, attempted, failed int, err error) {
	led := newLedger()
	var plainS, tracedS, cpuS float64
	var gcs uint32
	var refs []refReading
	var pauseS, kernelS, kernelC []float64
	for _, in := range e.inputs[:n] {
		twin := e.measure(in)
		plainS += twin.wallS
		cpuS += twin.cpuS
		gcs += twin.gcs
		refs = append(refs, twin.ref)
		pauseS = append(pauseS, twin.pauseS)
		kernelS = append(kernelS, twin.ref.wallS)
		kernelC = append(kernelC, twin.ref.cpuS)

		p := &probe{rec: fedtrace.NewCollector(), calls: &callLog{}}
		runtime.GC()
		start := time.Now()
		res, err := e.w.run(in, e.meta, p)
		tracedS += time.Since(start).Seconds()
		attempted += 2
		switch {
		case err != nil && twin.err != nil:
			failed += 2
			continue
		case err != nil:
			return nil, 0, 0, fmt.Errorf("federation seeded %d: traced run failed, untraced did not: %w", in.seed, err)
		case twin.err != nil:
			return nil, 0, 0, fmt.Errorf("federation seeded %d: untraced run failed, traced did not: %w", in.seed, twin.err)
		}
		for _, r := range []*core.Result{twin.res, res} {
			if err := e.w.check(r); err != nil {
				return nil, 0, 0, fmt.Errorf("federation seeded %d: %w", in.seed, err)
			}
		}
		if err := sameResult(res, twin.res); err != nil {
			return nil, 0, 0, fmt.Errorf("federation seeded %d: observing the run changed it: %w", in.seed, err)
		}
		if err := led.add(p.rec.Events(), p.calls.snapshot(), res.Comms); err != nil {
			return nil, 0, 0, fmt.Errorf("federation seeded %d: %w", in.seed, err)
		}
	}
	if led.runs == 0 {
		return nil, 0, 0, errors.New("every run failed")
	}
	kernel := quantile(kernelS, 0.5)
	wallF, _ := refFactors(refs)
	var refPauseS float64
	for i, p := range pauseS {
		refPauseS += wallF[i] * p
	}
	ms = append(led.metrics(refNominalS/kernel),
		metric{"metalearn.train_s", quantile(e.inRefSeconds(e.trainS), 0.5), "s"},
		metric{"obs.trace_overhead_frac", tracedS/plainS - 1, "ratio"},
		metric{"go.cpu_util", cpuS / (plainS * float64(runtime.GOMAXPROCS(0))), "ratio"},
		metric{"go.gc_cycles", float64(gcs) / float64(n), "count"},
		metric{"go.gc_pause_ms", 1e3 * refPauseS / float64(n), "ms"},
		metric{"machine.ref_kernel_ms", 1e3 * kernel, "ms"},
		metric{"machine.ref_kernel_cpu_ms", 1e3 * quantile(kernelC, 0.5), "ms"},
	)
	return ms, attempted, failed, nil
}

// quantile is the Harrell–Davis estimate of the q-quantile of xs: a
// mean of all the order statistics, each weighted by the probability a
// Beta(q(n+1), (1−q)(n+1)) variable falls in its 1/n-wide slot. It
// draws on the dozen samples nearest q instead of the one or two a
// plain sample quantile reads, which matters where the corpus's run
// times leave a gap near q. It is 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n == 1 {
		return s[0]
	}
	a, b := q*float64(n+1), (1-q)*float64(n+1)
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lab, _ := math.Lgamma(a + b)
	lnBeta := la + lb - lab
	// The Beta density, integrated over each slot by the midpoint rule.
	const steps = 64
	h := 1 / float64(n*steps)
	var sum, total float64
	for i, x := range s {
		var w float64
		for j := 0; j < steps; j++ {
			t := (float64(i*steps+j) + 0.5) * h
			w += math.Exp((a-1)*math.Log(t) + (b-1)*math.Log1p(-t) - lnBeta)
		}
		sum += w * x
		total += w
	}
	return sum / total
}

func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
