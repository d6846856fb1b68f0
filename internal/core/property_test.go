package core

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"privbayes/internal/dataset"
	"privbayes/internal/marginal"
	"privbayes/internal/score"
)

// randomSchemaData builds a random mixed schema (2-6 attributes, domain
// sizes 2-6, occasional hierarchies) and a random correlated dataset.
func randomSchemaData(seed int64) *dataset.Dataset {
	rng := rand.New(rand.NewSource(seed))
	d := 2 + rng.Intn(5)
	attrs := make([]dataset.Attribute, d)
	for i := range attrs {
		size := 2 + rng.Intn(5)
		labels := make([]string, size)
		for j := range labels {
			labels[j] = string(rune('a' + j))
		}
		attrs[i] = dataset.NewCategorical(string(rune('A'+i)), labels)
		if size == 4 && rng.Intn(2) == 0 {
			attrs[i].Hierarchy = dataset.NewHierarchy(4, []int{0, 0, 1, 1})
		}
	}
	ds := dataset.New(attrs)
	n := 300 + rng.Intn(700)
	rec := make([]uint16, d)
	for r := 0; r < n; r++ {
		prev := 0
		for c := 0; c < d; c++ {
			size := attrs[c].Size()
			// Correlate with the previous attribute half the time.
			if c > 0 && rng.Float64() < 0.5 {
				rec[c] = uint16(prev % size)
			} else {
				rec[c] = uint16(rng.Intn(size))
			}
			prev = int(rec[c])
		}
		ds.Append(rec)
	}
	return ds
}

// Property: for ANY schema, Synthesize produces a schema-valid dataset
// of the requested cardinality, for both small and large ε, with and
// without hierarchy/consistency.
func TestSynthesizeAlwaysSchemaValid(t *testing.T) {
	f := func(seed int64, smallEps, useHier, consistent bool) bool {
		ds := randomSchemaData(seed)
		eps := 1.0
		if smallEps {
			eps = 0.05
		}
		rng := rand.New(rand.NewSource(seed + 7))
		syn, err := Synthesize(context.Background(), ds, Options{
			Epsilon: eps, Beta: 0.3, Theta: 4,
			Mode: ModeGeneral, Score: score.R,
			UseHierarchy: useHier, Consistency: consistent, Rand: rng,
		})
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if syn.N() != ds.N() || syn.D() != ds.D() {
			return false
		}
		for r := 0; r < syn.N(); r++ {
			for c := 0; c < syn.D(); c++ {
				if syn.Value(r, c) >= syn.Attr(c).Size() {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// Property: every fitted network validates and every conditional block
// is a probability distribution, for any schema.
func TestFitInvariants(t *testing.T) {
	f := func(seed int64) bool {
		ds := randomSchemaData(seed)
		rng := rand.New(rand.NewSource(seed + 13))
		m, err := Fit(context.Background(), ds, Options{
			Epsilon: 0.4, Beta: 0.3, Theta: 4,
			Mode: ModeGeneral, Score: score.R, UseHierarchy: true, Rand: rng,
		})
		if err != nil {
			return false
		}
		if m.Network.Validate(ds.D()) != nil {
			return false
		}
		for _, c := range m.Conds {
			blocks := len(c.P) / c.XDim
			for b := 0; b < blocks; b++ {
				var s float64
				for x := 0; x < c.XDim; x++ {
					p := c.P[b*c.XDim+x]
					if p < 0 || p > 1+1e-9 {
						return false
					}
					s += p
				}
				if math.Abs(s-1) > 1e-6 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// Property: EnforceConsistency preserves mass and non-negativity on
// arbitrary noisy table collections.
func TestEnforceConsistencyInvariants(t *testing.T) {
	f := func(seed int64) bool {
		ds := randomSchemaData(seed)
		rng := rand.New(rand.NewSource(seed + 29))
		var joints []*marginal.Table
		for i := 0; i < ds.D(); i++ {
			vars := []marginal.Var{{Attr: i}}
			if j := (i + 1) % ds.D(); j != i {
				vars = append([]marginal.Var{{Attr: j}}, vars...)
			}
			tab := marginal.Materialize(ds, vars)
			tab.AddLaplace(rng, 0.05)
			tab.ClampNormalize()
			joints = append(joints, tab)
		}
		EnforceConsistency(joints, 4)
		for _, j := range joints {
			if math.Abs(j.Sum()-1) > 1e-6 {
				return false
			}
			for _, p := range j.P {
				if p < -1e-12 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
