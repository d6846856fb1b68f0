package baseline

import (
	"math"
	"math/rand"

	"privbayes/internal/dataset"
	"privbayes/internal/dp"
	"privbayes/internal/marginal"
)

// MWEM implements Hardt, Ligett and McSherry's multiplicative-weights
// exponential-mechanism mechanism over the full attribute domain, with
// the query class Qα expanded into one counting query per marginal cell.
// Following Section 6.5, the per-iteration budget is fixed at 0.05 so at
// least one improvement round happens even at small ε; iterations are
// capped to keep the harness responsive (the cap only binds at large ε,
// where MWEM is already competitive).
type MWEM struct {
	ds    *dataset.Dataset
	a     []float64 // synthetic distribution over the full domain
	dims  []int
	alpha int
}

// MWEMMaxIterations caps the improvement rounds.
const MWEMMaxIterations = 12

type mwemQuery struct {
	subset int // index into subsets
	cell   int // cell index within that marginal
}

// NewMWEM runs the mechanism under ε-DP for the query set Qα.
func NewMWEM(ds *dataset.Dataset, alpha int, epsilon float64, rng *rand.Rand) *MWEM {
	d := ds.D()
	dims := make([]int, d)
	cells := 1
	for a := 0; a < d; a++ {
		dims[a] = ds.Attr(a).Size()
		cells *= dims[a]
		if cells > MaxContingencyCells {
			panic("baseline: MWEM domain too large")
		}
	}
	m := &MWEM{ds: ds, a: make([]float64, cells), dims: dims, alpha: alpha}
	u := 1 / float64(cells)
	for i := range m.a {
		m.a[i] = u
	}

	iters := int(math.Round(epsilon / 0.05))
	if iters < 1 {
		iters = 1
	}
	if iters > MWEMMaxIterations {
		iters = MWEMMaxIterations
	}
	epsIter := epsilon / float64(iters)

	subsets := Subsets(d, alpha)
	// True counts per marginal cell.
	truth := make([][]float64, len(subsets))
	var queries []mwemQuery
	for si, attrs := range subsets {
		t := marginal.MaterializeCounts(ds, rawVars(attrs))
		truth[si] = t.P
		for c := range t.P {
			queries = append(queries, mwemQuery{subset: si, cell: c})
		}
	}
	n := float64(ds.N())

	type measurement struct {
		q mwemQuery
		m float64 // noisy count
	}
	var measured []measurement
	scores := make([]float64, len(queries))
	for it := 0; it < iters; it++ {
		// Approximate answers of every marginal under the current A.
		approx := make([][]float64, len(subsets))
		for si, attrs := range subsets {
			approx[si] = m.project(attrs)
		}
		for qi, q := range queries {
			scores[qi] = math.Abs(truth[q.subset][q.cell] - n*approx[q.subset][q.cell])
		}
		pick := queries[dp.Exponential(rng, scores, 1, epsIter/2)]
		noisy := truth[pick.subset][pick.cell] + dp.Laplace(rng, 2/epsIter)
		measured = append(measured, measurement{q: pick, m: noisy})

		// Multiplicative weights over all measurements so far.
		for _, ms := range measured {
			attrs := subsets[ms.q.subset]
			est := m.projectCell(attrs, ms.q.cell) * n
			factor := (ms.m - est) / (2 * n)
			m.updateCell(attrs, ms.q.cell, factor)
		}
	}
	return m
}

// project computes the marginal of the current distribution A over the
// attributes, returned as a flat probability slice.
func (m *MWEM) project(attrs []int) []float64 {
	outSize := 1
	for _, a := range attrs {
		outSize *= m.dims[a]
	}
	out := make([]float64, outSize)
	projectDomain(m.a, m.dims, attrs, out)
	return out
}

// projectCell returns one marginal cell's mass.
func (m *MWEM) projectCell(attrs []int, cell int) float64 {
	w := newDomainWalk(m.dims, attrs)
	var sum float64
	for lo := 0; lo < len(m.a); lo += w.run {
		if w.o == cell {
			for _, p := range m.a[lo : lo+w.run] {
				sum += p
			}
		}
		w.next()
	}
	return sum
}

// updateCell multiplies the full-domain cells inside the marginal cell
// by exp(factor) and renormalizes.
func (m *MWEM) updateCell(attrs []int, cell int, factor float64) {
	w := newDomainWalk(m.dims, attrs)
	mult := math.Exp(factor)
	var total float64
	for lo := 0; lo < len(m.a); lo += w.run {
		run := m.a[lo : lo+w.run]
		if w.o == cell {
			for i := range run {
				run[i] *= mult
			}
		}
		for _, p := range run {
			total += p
		}
		w.next()
	}
	if total > 0 {
		inv := 1 / total
		for idx := range m.a {
			m.a[idx] *= inv
		}
	}
}

// Marginal implements MarginalSource by projecting the learned
// distribution.
func (m *MWEM) Marginal(attrs []int) *marginal.Table {
	t := marginal.NewTable(m.ds, rawVars(attrs))
	copy(t.P, m.project(attrs))
	return t
}
