package baseline

import (
	"math/rand"

	"privbayes/internal/dataset"
	"privbayes/internal/marginal"
)

// Contingency is the paper's full-domain baseline: build the complete
// contingency table over all d attributes, perturb every cell with
// Laplace(2/(n·ε)) noise (one table, sensitivity 2/n in probability
// space), clamp and normalize once, then answer marginal queries by
// projection. Memory and time are proportional to the total domain
// size, which is exactly the scalability wall the paper describes —
// usable for NLTCS (2^16) and ACS (2^23), hopeless beyond.
type Contingency struct {
	ds    *dataset.Dataset
	full  []float64
	dims  []int
	limit int
}

// MaxContingencyCells caps the full-domain table; exceeding it panics so
// a misconfigured experiment fails loudly instead of swallowing memory.
const MaxContingencyCells = 1 << 26

// NewContingency builds the noisy full-domain distribution under ε-DP.
func NewContingency(ds *dataset.Dataset, epsilon float64, rng *rand.Rand) *Contingency {
	d := ds.D()
	dims := make([]int, d)
	cells := 1
	for a := 0; a < d; a++ {
		dims[a] = ds.Attr(a).Size()
		cells *= dims[a]
		if cells > MaxContingencyCells {
			panic("baseline: contingency table exceeds cell cap; domain too large")
		}
	}
	vars := make([]marginal.Var, d)
	for a := range vars {
		vars[a] = marginal.Var{Attr: a}
	}
	t := marginal.Materialize(ds, vars)
	t.AddLaplace(rng, 2/(float64(ds.N())*epsilon))
	t.ClampNormalize()
	return &Contingency{ds: ds, full: t.P, dims: dims}
}

// Marginal projects the noisy full table onto the requested attributes.
func (c *Contingency) Marginal(attrs []int) *marginal.Table {
	out := marginal.NewTable(c.ds, rawVars(attrs))
	projectDomain(c.full, c.dims, attrs, out.P)
	return out
}
