package baseline

// domainWalk visits the full domain (row-major, last attribute fastest)
// in index order, one run of cells at a time, tracking o: the run's
// index in the marginal over a subset of the attributes. Attributes
// after the subset's last one never move o, so each run is the block of
// cells they span, and an odometer over the remaining digits steps from
// run to run in amortized O(1) — no per-cell idx / stride % dim
// decoding. Cells are still visited in index order, so a sum over the
// domain is unchanged bit for bit.
type domainWalk struct {
	dims  []int // sizes of the attributes up to the subset's last
	digit []int
	delta []int // marginal-index stride per attribute; 0 off the subset
	run   int   // cells per run
	o     int
}

// newDomainWalk starts a walk at cell 0 of the domain with the given
// attribute sizes, for the marginal over attrs.
func newDomainWalk(dims, attrs []int) *domainWalk {
	last := -1
	for _, a := range attrs {
		last = max(last, a)
	}
	w := &domainWalk{dims: dims[:last+1], digit: make([]int, last+1), delta: make([]int, last+1), run: 1}
	for _, size := range dims[last+1:] {
		w.run *= size
	}
	s := 1
	for i := len(attrs) - 1; i >= 0; i-- {
		w.delta[attrs[i]] = s
		s *= dims[attrs[i]]
	}
	return w
}

// next advances to the following run; past the last run it wraps back
// to cell 0.
func (w *domainWalk) next() {
	for a := len(w.digit) - 1; a >= 0; a-- {
		w.digit[a]++
		w.o += w.delta[a]
		if w.digit[a] < w.dims[a] {
			return
		}
		w.digit[a] = 0
		w.o -= w.dims[a] * w.delta[a]
	}
}

// projectDomain adds full, a distribution over the whole domain with
// the given attribute sizes, into out, the marginal over attrs.
func projectDomain(full []float64, dims, attrs []int, out []float64) {
	w := newDomainWalk(dims, attrs)
	for lo := 0; lo < len(full); lo += w.run {
		acc := out[w.o]
		for _, p := range full[lo : lo+w.run] {
			acc += p
		}
		out[w.o] = acc
		w.next()
	}
}
