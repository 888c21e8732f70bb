package main

import (
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"
)

// The reference kernel's wall and CPU time on the reference machine (a
// 2-vCPU Xeon VM, GOMAXPROCS=2) while its host was quiet.
//
// The benchmark reports durations in reference seconds: a wall time is
// multiplied by refNominalS over the kernel's wall time around it, a
// CPU time by refNominalCPUS over the kernel's CPU time. The reference
// machine's host changes its speed by tens of percent over minutes, in
// two ways. Sometimes every instruction gets slower, and wall and CPU
// time grow together. Sometimes the host deschedules the VM's CPUs, and
// wall time grows but CPU time does not. The kernel slows the same way
// in both cases, so reference seconds hold still under host load and
// equal measured seconds on a quiet reference machine. README.md gives
// the measurements behind this.
const (
	refNominalS    = 0.011
	refNominalCPUS = 0.0216
)

// refKernel is fixed work on the engine's hot path — sorting a copy of
// a float slice, as tree fits do — spread over GOMAXPROCS goroutines.
// Its buffers are allocated once, so timing it leaves no garbage for
// the engine's collector. It uses only the standard library, so no
// change to the engine moves it: only the machine does.
type refKernel struct {
	src  []float64
	bufs [][]float64
}

func newRefKernel() *refKernel {
	rng := rand.New(rand.NewSource(1))
	k := &refKernel{src: make([]float64, 4096)}
	for i := range k.src {
		k.src[i] = rng.Float64()
	}
	for g := 0; g < runtime.GOMAXPROCS(0); g++ {
		k.bufs = append(k.bufs, make([]float64, len(k.src)))
	}
	return k
}

// refReading is one timing of the kernel.
type refReading struct {
	wallS, cpuS float64
}

func (k *refKernel) read() refReading {
	cpu0 := cpuSeconds()
	start := time.Now()
	var wg sync.WaitGroup
	for _, buf := range k.bufs {
		wg.Add(1)
		go func(buf []float64) {
			defer wg.Done()
			for r := 0; r < 40; r++ {
				copy(buf, k.src)
				sort.Float64s(buf)
			}
		}(buf)
	}
	wg.Wait()
	return refReading{wallS: time.Since(start).Seconds(), cpuS: cpuSeconds() - cpu0}
}

// refWindow is how many consecutive readings a run's scale factors are
// taken from. One 11 ms reading is a noisy sample of how fast the
// machine ran during a run of up to a second or more: over eight
// batch-wide processes on the reference machine, run_s_p90 spread 8.9%
// scaled by each run's own reading and 2.1% by the median of 15.
const refWindow = 15

// refFactors gives, for each of a sequence of readings, the factors
// that turn wall and CPU durations measured next to it into reference
// seconds: the nominal times over the median of the refWindow readings
// centred on it.
func refFactors(rs []refReading) (wall, cpu []float64) {
	wall, cpu = make([]float64, len(rs)), make([]float64, len(rs))
	for i := range rs {
		lo, hi := max(0, i-refWindow/2), min(len(rs), i+refWindow/2+1)
		var ws, cs []float64
		for _, r := range rs[lo:hi] {
			ws, cs = append(ws, r.wallS), append(cs, r.cpuS)
		}
		wall[i], cpu[i] = refNominalS/quantile(ws, 0.5), refNominalCPUS/quantile(cs, 0.5)
	}
	return wall, cpu
}
