package bayesopt

import (
	"math"
	"math/rand"
	"sort"

	"fedforecaster/internal/search"
)

// Optimizer coordinates Bayesian optimization across the recommended
// algorithm subspaces: one independent GP per algorithm, expected
// improvement maximized jointly over all of them. Warm-start
// configurations (the meta-model's recommendations) are evaluated
// first, exactly as Algorithm 1 prescribes.
type Optimizer struct {
	spaces []search.Space
	rng    *rand.Rand
	// exploration controls
	candidates int     // EI candidate samples per space per proposal
	xi         float64 // EI exploration margin (in standardized loss units)

	queue []search.Config // pending warm-start evaluations
	obs   map[string]*spaceObs
	best  search.Config
	bestY float64
	seen  map[string]bool // dedupe proposals
	n     int             // total observations
}

type spaceObs struct {
	space search.Space
	x     [][]float64
	y     []float64
}

// New returns an optimizer over the given subspaces.
func New(spaces []search.Space, seed int64) *Optimizer {
	o := &Optimizer{
		spaces:     spaces,
		rng:        rand.New(rand.NewSource(seed)),
		candidates: 256,
		xi:         0.01,
		obs:        map[string]*spaceObs{},
		seen:       map[string]bool{},
		bestY:      math.Inf(1),
	}
	for _, s := range spaces {
		o.obs[s.Algorithm] = &spaceObs{space: s} //lint:allow hotalloc one-time construction per subspace at optimizer creation, not per-round work
	}
	return o
}

// Warm enqueues initial configurations to be proposed, in order,
// before any model-based proposal.
func (o *Optimizer) Warm(cfgs []search.Config) {
	for _, c := range cfgs {
		if _, ok := o.obs[c.Algorithm]; ok {
			o.queue = append(o.queue, c.Clone())
		}
	}
}

// minPerSpace is the number of observations a subspace needs before
// its GP participates in EI; until then it is explored uniformly. One
// observation suffices because warm starts already seed each space —
// forcing more would eat most of a small federated budget on uniform
// exploration.
const minPerSpace = 1

// next proposes the next configuration (ProposeBatch(1) exports it).
func (o *Optimizer) next() search.Config {
	if len(o.queue) > 0 {
		c := o.queue[0]
		o.queue = o.queue[1:]
		return c
	}
	// Ensure every space has minimum coverage first (round-robin).
	for _, s := range o.spaces {
		if len(o.obs[s.Algorithm].y) < minPerSpace {
			return o.sampleUnseen(s)
		}
	}
	// GP-EI over all spaces on *globally standardized* losses, so
	// subspaces with few observations (or very different loss scales)
	// compete on one objective and retain a sane exploration scale.
	// Collect losses in sorted-algorithm order: float summation is not
	// associative, so the map's iteration order must not reach the
	// global mean/stddev.
	algos := make([]string, 0, len(o.obs))
	for a := range o.obs {
		algos = append(algos, a)
	}
	sort.Strings(algos)
	var all []float64
	for _, a := range algos {
		all = append(all, o.obs[a].y...)
	}
	gMean := mean(all)
	gStd := stddev(all, gMean)
	if gStd < 1e-12 {
		gStd = 1
	}
	std := func(v float64) float64 { return (v - gMean) / gStd }
	incumbent := std(o.bestY)

	bestEI := -1.0
	var bestCfg search.Config
	havePick := false
	// One standardized-loss buffer and one candidate buffer serve every
	// space: fit copies what it keeps and Decode copies what it returns,
	// and each space's GP dies before the buffers are resliced.
	maxDim, maxObs := 0, 0
	for _, s := range o.spaces {
		if d := s.Dim(); d > maxDim {
			maxDim = d
		}
		if n := len(o.obs[s.Algorithm].y); n > maxObs {
			maxObs = n
		}
	}
	ysBuf := make([]float64, maxObs)
	u := make([]float64, maxDim)
	for _, s := range o.spaces {
		so := o.obs[s.Algorithm]
		ys := ysBuf[:len(so.y)]
		for i, v := range so.y {
			ys[i] = std(v)
		}
		g := newGP(s.Dim())
		if err := g.fit(so.x, ys); err != nil {
			continue
		}
		for c := 0; c < o.candidates; c++ {
			u = u[:s.Dim()]
			for i := range u {
				u[i] = o.rng.Float64()
			}
			mu, sigma := g.predict(u)
			ei := expectedImprovement(mu, sigma, incumbent, o.xi)
			if ei > bestEI {
				cfg := s.Decode(u)
				if o.seen[cfg.String()] {
					continue
				}
				bestEI = ei
				bestCfg = cfg
				havePick = true
			}
		}
	}
	if !havePick || bestEI <= 0 {
		// Acquisition exhausted (or everything proposed already):
		// fall back to uniform exploration.
		s := o.spaces[o.rng.Intn(len(o.spaces))]
		return o.sampleUnseen(s)
	}
	return bestCfg
}

// maxSampleAttempts bounds sampleUnseen's duplicate-avoidance loop.
// Small discrete spaces (e.g. one categorical hyper-parameter) can be
// nearly or fully exhausted by a long run, in which case hunting for an
// unseen point would spin without a cutoff.
const maxSampleAttempts = 32

func (o *Optimizer) sampleUnseen(s search.Space) search.Config {
	var c search.Config
	for attempt := 0; attempt < maxSampleAttempts; attempt++ {
		c = s.Sample(o.rng)
		if !o.seen[c.String()] {
			return c
		}
	}
	// Audit note: every attempt landed on an already-proposed point, so
	// the space is (nearly) exhausted. Returning the last draw is a
	// deliberate duplicate — re-evaluating a known configuration is
	// harmless (observe just re-records it), whereas looping until an
	// unseen point appears may never terminate on a finite grid.
	return c
}

// ProposeBatch proposes q configurations to evaluate in one federated
// round using the constant-liar q-EI heuristic: after each proposal a
// fake observation at the incumbent loss (the "lie") is recorded so the
// acquisition function avoids re-proposing the same region, and all
// lies are retracted before returning. For q = 1 no lie is placed and
// the call is exactly next — same RNG draws, same proposal — which is
// the q=1 ≡ sequential determinism contract the engine's golden
// regression test pins.
func (o *Optimizer) ProposeBatch(q int) []search.Config {
	if q <= 1 {
		return []search.Config{o.next()}
	}
	// The lies must not survive the batch: save the incumbent (a lie at
	// the incumbent value never improves it, but an empty history would
	// let the clamped lie become "best") and record enough per-lie state
	// to retract observations exactly.
	savedBest, savedBestY := o.best, o.bestY
	liar := o.bestY
	if math.IsInf(liar, 1) {
		// No real observation yet (e.g. the whole warm-start queue fits
		// in one batch): lie with 0, a neutral standardized loss.
		liar = 0
	}
	type lieRecord struct {
		algo     string
		key      string
		prevSeen bool
	}
	lies := make([]lieRecord, 0, q-1)
	batch := make([]search.Config, 0, q)
	for k := 0; k < q; k++ {
		cfg := o.next()
		batch = append(batch, cfg)
		if k == q-1 {
			break // the last candidate needs no lie: nothing follows it
		}
		if _, ok := o.obs[cfg.Algorithm]; !ok {
			continue // observe would ignore it; nothing to retract
		}
		key := cfg.String()
		lies = append(lies, lieRecord{cfg.Algorithm, key, o.seen[key]})
		o.observe(cfg, liar)
	}
	// Retract the lies in reverse order so the observation arrays pop
	// back to their pre-batch lengths.
	for i := len(lies) - 1; i >= 0; i-- {
		l := lies[i]
		so := o.obs[l.algo]
		so.x = so.x[:len(so.x)-1]
		so.y = so.y[:len(so.y)-1]
		o.n--
		if !l.prevSeen {
			delete(o.seen, l.key)
		}
	}
	o.best, o.bestY = savedBest, savedBestY
	return batch
}

// ObserveAll records the evaluated batch in proposal order. For a
// single-element batch it is exactly one observe call, preserving the
// sequential next/observe history byte for byte.
func (o *Optimizer) ObserveAll(cfgs []search.Config, losses []float64) {
	for i, c := range cfgs {
		if i < len(losses) {
			o.observe(c, losses[i])
		}
	}
}

// observe records the aggregated global loss of a configuration.
// Non-finite losses are clamped to a large penalty so the surrogate
// learns to avoid the region instead of crashing.
func (o *Optimizer) observe(cfg search.Config, loss float64) {
	so, ok := o.obs[cfg.Algorithm]
	if !ok {
		return
	}
	if math.IsNaN(loss) || math.IsInf(loss, 0) {
		loss = math.MaxFloat64 / 1e10
	}
	o.seen[cfg.String()] = true
	so.x = append(so.x, so.space.Encode(cfg))
	so.y = append(so.y, loss)
	o.n++
	if loss < o.bestY {
		o.bestY = loss
		o.best = cfg.Clone()
	}
}

// Best returns the incumbent configuration and its loss; ok is false
// before any observation.
func (o *Optimizer) Best() (cfg search.Config, loss float64, ok bool) {
	if math.IsInf(o.bestY, 1) {
		return search.Config{}, 0, false
	}
	return o.best.Clone(), o.bestY, true
}

func mean(xs []float64) float64 {
	var s float64
	for _, v := range xs {
		s += v
	}
	return s / float64(len(xs))
}

func stddev(xs []float64, m float64) float64 {
	var s float64
	for _, v := range xs {
		d := v - m
		s += float64(d * d)
	}
	if len(xs) == 0 {
		return 0
	}
	return math.Sqrt(s / float64(len(xs)))
}
