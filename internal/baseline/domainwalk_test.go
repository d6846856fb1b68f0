package baseline

import (
	"math/rand"
	"testing"
)

// TestDomainWalkMatchesDivMod pins the odometer to the closed form it
// replaces: at every full-domain cell idx, the marginal index of the
// walk's current run equals Σ idx / stride[a] % dims[a] * outStride[i]
// over the subset, on random domain shapes and random (unordered,
// possibly empty) subsets.
// Since the walk also visits cells in index order, every MWEM and
// Contingency sum over the domain is unchanged bit for bit.
func TestDomainWalkMatchesDivMod(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		d := 1 + rng.Intn(6)
		dims := make([]int, d)
		cells := 1
		for a := range dims {
			dims[a] = 1 + rng.Intn(4)
			cells *= dims[a]
		}
		attrs := rng.Perm(d)[:rng.Intn(d+1)]

		stride := make([]int, d)
		s := 1
		for a := d - 1; a >= 0; a-- {
			stride[a] = s
			s *= dims[a]
		}
		outStride := make([]int, len(attrs))
		s = 1
		for i := len(attrs) - 1; i >= 0; i-- {
			outStride[i] = s
			s *= dims[attrs[i]]
		}

		w := newDomainWalk(dims, attrs)
		if cells%w.run != 0 {
			t.Fatalf("dims %v attrs %v: run %d does not tile %d cells", dims, attrs, w.run, cells)
		}
		for idx := 0; idx < cells; idx++ {
			want := 0
			for i, a := range attrs {
				want += idx / stride[a] % dims[a] * outStride[i]
			}
			if w.o != want {
				t.Fatalf("dims %v attrs %v cell %d: walk index %d, div/mod %d", dims, attrs, idx, w.o, want)
			}
			if (idx+1)%w.run == 0 {
				w.next()
			}
		}
		if w.o != 0 {
			t.Fatalf("dims %v attrs %v: walk did not wrap to cell 0 (index %d)", dims, attrs, w.o)
		}
	}
}
