package core

import (
	"bytes"
	"context"
	"math/rand"
	"testing"

	"privbayes/internal/counts"
	"privbayes/internal/dataset"
	"privbayes/internal/marginal"
	"privbayes/internal/score"
)

// countsFitJSON fits through FitCountsContext over a scan-backed count
// provider re-reading ds in chunks of chunkRows, and returns the
// serialized model bytes.
func countsFitJSON(t *testing.T, ds *dataset.Dataset, opt Options, chunkRows, parallelism int) []byte {
	t.Helper()
	src := dataset.DatasetSource(ds, chunkRows)
	p, err := counts.NewProvider(context.Background(), src, parallelism)
	if err != nil {
		t.Fatal(err)
	}
	m, err := FitCountsContext(context.Background(), ds.Attrs(), p, opt)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.WriteJSON(&buf, opt.Epsilon); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestFitCountsBitIdenticalToInMemory is the out-of-core contract: a fit
// whose every data access goes through chunked count tables produces
// the byte-identical model an in-memory fit produces from the same rows
// — for both algorithm families, regardless of chunk geometry. Both
// routes are also bit-identical across parallelism (1 included): every
// fit must match the in-memory fit at parallelism 2.
func TestFitCountsBitIdenticalToInMemory(t *testing.T) {
	cases := []struct {
		name string
		ds   *dataset.Dataset
		opt  Options
	}{
		{"binary", chainData(3000, 7), Options{Epsilon: 0.8, Beta: 0.3, Theta: 4, K: 2,
			Mode: ModeBinary, Score: score.F}},
		{"general", mixedData(3000, 8), Options{Epsilon: 0.8, Beta: 0.3, Theta: 4,
			Mode: ModeGeneral, Score: score.R, UseHierarchy: true}},
	}
	fit := func(ds *dataset.Dataset, opt Options) []byte {
		m, err := Fit(context.Background(), ds, opt)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := m.WriteJSON(&buf, opt.Epsilon); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for _, tc := range cases {
		opt := tc.opt
		opt.Parallelism = 2
		opt.Rand = rand.New(rand.NewSource(11))
		want := fit(tc.ds, opt)
		for _, par := range []int{0, 1, 2, 4} {
			opt.Parallelism = par
			opt.Rand = rand.New(rand.NewSource(11))
			if got := fit(tc.ds, opt); !bytes.Equal(got, want) {
				t.Errorf("%s: in-memory fit at parallelism %d differs from parallelism 2", tc.name, par)
			}
			for _, chunk := range []int{100, 999, 1 << 16} {
				opt.Rand = rand.New(rand.NewSource(11))
				got := countsFitJSON(t, tc.ds, opt, chunk, par)
				if !bytes.Equal(got, want) {
					t.Errorf("%s: counts fit (chunk %d, parallelism %d) differs from in-memory fit", tc.name, chunk, par)
				}
			}
		}
	}
}

// TestFitCountsScanBudget checks the one-scan-per-iteration promise: an
// out-of-core fit's scan count is bounded by the number of greedy
// iterations plus the initial row-counting pass and the conditional
// materialization pass — not by the number of candidates scored.
func TestFitCountsScanBudget(t *testing.T) {
	ds := chainData(2000, 3)
	src := dataset.DatasetSource(ds, 512)
	p, err := counts.NewProvider(context.Background(), src, 2)
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Epsilon: 0.8, Beta: 0.3, Theta: 4, K: 2, Mode: ModeBinary,
		Score: score.F, Parallelism: 2, Rand: rand.New(rand.NewSource(1))}
	if _, err := FitCountsContext(context.Background(), ds.Attrs(), p, opt); err != nil {
		t.Fatal(err)
	}
	scans, _ := p.Stats()
	// d-1 greedy iterations + counting scan + conditionals prefetch,
	// with slack for memo-hit iterations that still prefetch.
	maxScans := int64(ds.D() + 2)
	if scans > maxScans {
		t.Errorf("fit used %d scans, want <= %d (one per greedy iteration)", scans, maxScans)
	}
}

// TestRefitCountsMatchesConditionals: an incremental refit over a
// maintained count store reproduces — byte for byte — the noisy
// conditionals a full-data materialization draws with the same seed and
// network, and the refit is bit-identical at every parallelism.
func TestRefitCountsMatchesConditionals(t *testing.T) {
	ds := chainData(3000, 7)
	opt := Options{Epsilon: 0.8, Beta: 0.3, Theta: 4, K: 2, Mode: ModeBinary,
		Score: score.F, Parallelism: 2, Rand: rand.New(rand.NewSource(21))}
	m, err := Fit(context.Background(), ds, opt)
	if err != nil {
		t.Fatal(err)
	}

	// Maintain a count store the way the curator does: register the
	// network's AP pairs, accumulate chunks as rows arrive.
	st := counts.NewStore(ds.Attrs())
	for _, pair := range m.Network.Pairs {
		if err := st.Register(pair.Parents, []marginal.Var{pair.X}); err != nil {
			t.Fatal(err)
		}
	}
	for lo := 0; lo < ds.N(); lo += 700 {
		hi := lo + 700
		if hi > ds.N() {
			hi = ds.N()
		}
		if err := st.Accumulate(ds.Slice(lo, hi)); err != nil {
			t.Fatal(err)
		}
	}

	wantConds, err := noisyConditionalsBinary(context.Background(), ds, m.Network, m.K, 0.56, false, false, 2,
		rand.New(rand.NewSource(33)), nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	var wantBuf bytes.Buffer
	want := &Model{Attrs: m.Attrs, Score: m.Score, K: m.K, Network: m.Network, Conds: wantConds}
	if err := want.WriteJSON(&wantBuf, 0.56); err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{0, 1, 2, 4} {
		refitOpt := Options{Epsilon: 0.56, Mode: ModeBinary, Score: score.F,
			Parallelism: par, Rand: rand.New(rand.NewSource(33))}
		got, err := RefitCountsContext(context.Background(), ds.Attrs(), st.Source(), m.Network, m.K, refitOpt)
		if err != nil {
			t.Fatal(err)
		}
		var gotBuf bytes.Buffer
		if err := got.WriteJSON(&gotBuf, 0.56); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotBuf.Bytes(), wantBuf.Bytes()) {
			t.Errorf("parallelism %d: incremental refit differs from full-data conditionals at parallelism 2", par)
		}
	}
}

// TestRefitCountsGeneralMode exercises the general-mode branch and the
// sampling path of a refit model end to end.
func TestRefitCountsGeneralMode(t *testing.T) {
	ds := mixedData(2000, 5)
	opt := Options{Epsilon: 1, Beta: 0.3, Theta: 4, Mode: ModeGeneral,
		Score: score.R, UseHierarchy: true, Parallelism: 2, Rand: rand.New(rand.NewSource(9))}
	m, err := Fit(context.Background(), ds, opt)
	if err != nil {
		t.Fatal(err)
	}
	st := counts.NewStore(ds.Attrs())
	for _, pair := range m.Network.Pairs {
		if err := st.Register(pair.Parents, []marginal.Var{pair.X}); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Accumulate(ds); err != nil {
		t.Fatal(err)
	}
	refit, err := RefitCountsContext(context.Background(), ds.Attrs(), st.Source(), m.Network, -1,
		Options{Epsilon: 0.7, Mode: ModeGeneral, Score: score.R, Parallelism: 2, Rand: rand.New(rand.NewSource(10))})
	if err != nil {
		t.Fatal(err)
	}
	out := refit.SampleP(500, rand.New(rand.NewSource(11)), 2)
	if out.N() != 500 || out.D() != ds.D() {
		t.Fatalf("refit sample shape %dx%d, want 500x%d", out.N(), out.D(), ds.D())
	}
}

// TestRefitCountsValidation covers the error paths: nil rng, bad
// epsilon, empty source, invalid network, bad anchor degree.
func TestRefitCountsValidation(t *testing.T) {
	ds := chainData(200, 1)
	st := counts.NewStore(ds.Attrs())
	if err := st.Accumulate(ds); err != nil {
		t.Fatal(err)
	}
	src := st.Source()
	net := Network{Pairs: []APPair{
		{X: marginal.Var{Attr: 0}}, {X: marginal.Var{Attr: 1}, Parents: []marginal.Var{{Attr: 0}}}}}
	good := Options{Epsilon: 1, Mode: ModeBinary, Score: score.F, Rand: rand.New(rand.NewSource(1))}

	if _, err := RefitCountsContext(context.Background(), ds.Attrs(), src, net, 1, Options{Epsilon: 1, Mode: ModeBinary}); err == nil {
		t.Error("nil rng accepted")
	}
	bad := good
	bad.Rand = rand.New(rand.NewSource(1))
	bad.Epsilon = 0
	if _, err := RefitCountsContext(context.Background(), ds.Attrs(), src, net, 1, bad); err == nil {
		t.Error("zero epsilon accepted")
	}
	empty := counts.NewStore(ds.Attrs())
	if _, err := RefitCountsContext(context.Background(), ds.Attrs(), empty.Source(), net, 1, good); err == nil {
		t.Error("empty source accepted")
	}
	if _, err := RefitCountsContext(context.Background(), ds.Attrs(), src, net, 99, good); err == nil {
		t.Error("out-of-range anchor degree accepted")
	}
	badNet := Network{Pairs: []APPair{{X: marginal.Var{Attr: 42}}}}
	if _, err := RefitCountsContext(context.Background(), ds.Attrs(), src, badNet, 0, good); err == nil {
		t.Error("invalid network accepted")
	}
}
