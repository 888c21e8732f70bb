package bayesopt

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"fedforecaster/internal/search"
)

// objective is a deterministic quadratic loss over quadraticSpace.
func objective(c search.Config) float64 {
	x := c.Values["x"]
	return (x - 0.3) * (x - 0.3)
}

// snapshot captures the optimizer's observable state for equality
// checks: per-space observation arrays, incumbent, counts, and the
// seen set.
func snapshot(o *Optimizer) map[string]any {
	st := map[string]any{
		"n":     o.n,
		"bestY": o.bestY,
		"best":  o.best.String(),
		"queue": len(o.queue),
	}
	for a, so := range o.obs {
		st["x:"+a] = fmt.Sprintf("%v", so.x)
		st["y:"+a] = fmt.Sprintf("%v", so.y)
	}
	seen := map[string]bool{}
	for k, v := range o.seen {
		seen[k] = v
	}
	st["seen"] = seen
	return st
}

// TestProposeBatchQ1MatchesSequential pins the q=1 ≡ next/observe
// contract: driving the optimizer with ProposeBatch(1)+ObserveAll
// produces the exact proposal sequence and internal state of the
// sequential loop, RNG draw for RNG draw.
func TestProposeBatchQ1MatchesSequential(t *testing.T) {
	spaces := []search.Space{quadraticSpace()}
	seq := New(spaces, 7)
	bat := New(spaces, 7)
	for i := 0; i < 12; i++ {
		c1 := seq.next()
		seq.observe(c1, objective(c1))

		cs := bat.ProposeBatch(1)
		if len(cs) != 1 {
			t.Fatalf("ProposeBatch(1) returned %d configs", len(cs))
		}
		bat.ObserveAll(cs, []float64{objective(cs[0])})

		if c1.String() != cs[0].String() {
			t.Fatalf("iter %d: sequential proposed %q, batch-of-1 proposed %q", i, c1, cs[0])
		}
	}
	if !reflect.DeepEqual(snapshot(seq), snapshot(bat)) {
		t.Errorf("states diverged:\nseq = %v\nbat = %v", snapshot(seq), snapshot(bat))
	}
}

// TestProposeBatchRetractsLies: after a ProposeBatch(q) call the
// optimizer's state is exactly what it was before the call — the
// constant lies never leak into the history, incumbent, or seen set.
func TestProposeBatchRetractsLies(t *testing.T) {
	o := New([]search.Space{quadraticSpace()}, 11)
	// Build some real history first so the GP path (not just uniform
	// coverage) is exercised.
	for i := 0; i < 5; i++ {
		c := o.next()
		o.observe(c, objective(c))
	}
	before := snapshot(o)
	batch := o.ProposeBatch(4)
	if len(batch) != 4 {
		t.Fatalf("ProposeBatch(4) returned %d configs", len(batch))
	}
	after := snapshot(o)
	if !reflect.DeepEqual(before, after) {
		t.Errorf("lies leaked into optimizer state:\nbefore = %v\nafter  = %v", before, after)
	}
	// The batch should be internally diverse: the lie steers EI away
	// from re-proposing the identical point, so on a continuous space
	// all four proposals are distinct.
	uniq := map[string]bool{}
	for _, c := range batch {
		uniq[c.String()] = true
	}
	if len(uniq) < 4 {
		t.Errorf("batch has %d unique configs of 4: %v", len(uniq), batch)
	}
}

// TestProposeBatchBeforeAnyObservation: a batch proposed from an empty
// history (the cold-start first round) must not corrupt the incumbent
// via the fallback lie.
func TestProposeBatchBeforeAnyObservation(t *testing.T) {
	o := New([]search.Space{quadraticSpace()}, 13)
	batch := o.ProposeBatch(3)
	if len(batch) != 3 {
		t.Fatalf("got %d configs", len(batch))
	}
	if _, _, ok := o.Best(); ok {
		t.Error("Best reports an incumbent before any real observation")
	}
	if o.NumObservations() != 0 {
		t.Errorf("NumObservations = %d after proposal-only batch", o.NumObservations())
	}
	// Observing the real losses afterwards works normally.
	losses := make([]float64, len(batch))
	for i, c := range batch {
		losses[i] = objective(c)
	}
	o.ObserveAll(batch, losses)
	if o.NumObservations() != 3 {
		t.Errorf("NumObservations = %d, want 3", o.NumObservations())
	}
	if _, loss, ok := o.Best(); !ok || math.IsInf(loss, 1) {
		t.Errorf("no incumbent after ObserveAll: loss=%v ok=%v", loss, ok)
	}
}

// TestProposeBatchDrainsWarmQueueInOrder: warm-start configurations
// come out of a batch in enqueue order, before model proposals.
func TestProposeBatchDrainsWarmQueueInOrder(t *testing.T) {
	s := quadraticSpace()
	o := New([]search.Space{s}, 17)
	warm := []search.Config{
		{Algorithm: s.Algorithm, Values: map[string]float64{"x": 0.25}},
		{Algorithm: s.Algorithm, Values: map[string]float64{"x": 0.75}},
	}
	o.Warm(warm)
	batch := o.ProposeBatch(3)
	if batch[0].String() != warm[0].String() || batch[1].String() != warm[1].String() {
		t.Errorf("warm starts not first/in order: %v", batch)
	}
}

// TestSampleUnseenTerminatesOnExhaustedSpace: a fully explored discrete
// space must not spin forever; the bounded loop returns a deliberate
// duplicate instead.
func TestSampleUnseenTerminatesOnExhaustedSpace(t *testing.T) {
	s := search.Space{
		Algorithm: "Tiny",
		Params:    []search.Param{{Name: "c", Kind: search.Categorical, Choices: []string{"a", "b"}}},
	}
	o := New([]search.Space{s}, 19)
	rng := rand.New(rand.NewSource(1))
	// Exhaust the 2-point space.
	for i := 0; i < 8; i++ {
		o.seen[s.Sample(rng).String()] = true
	}
	c := o.sampleUnseen(s) // must return, not hang
	if c.Algorithm != "Tiny" {
		t.Errorf("unexpected config %v", c)
	}
	if !o.seen[c.String()] {
		t.Errorf("exhausted space returned an allegedly unseen config %v", c)
	}
}

// TestObserveAllShortLosses: a truncated loss slice (defensive path)
// records only the paired prefix.
func TestObserveAllShortLosses(t *testing.T) {
	s := quadraticSpace()
	o := New([]search.Space{s}, 23)
	cfgs := []search.Config{
		{Algorithm: s.Algorithm, Values: map[string]float64{"x": 0.1}},
		{Algorithm: s.Algorithm, Values: map[string]float64{"x": 0.9}},
	}
	o.ObserveAll(cfgs, []float64{0.5})
	if o.NumObservations() != 1 {
		t.Errorf("NumObservations = %d, want 1", o.NumObservations())
	}
}
