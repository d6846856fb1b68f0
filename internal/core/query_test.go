package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"sync"
	"testing"

	"privbayes/internal/dataset"
	"privbayes/internal/infer"
	"privbayes/internal/score"
)

// jointWalk enumerates the model's full joint and calls visit with every
// raw code assignment and its probability — the brute-force reference
// all Query answers are checked against.
func jointWalk(m *Model, visit func(codes []int, p float64)) {
	d := len(m.Attrs)
	codes := make([]int, d)
	var walk func(step int, w float64)
	walk = func(step int, w float64) {
		if step == len(m.Network.Pairs) {
			visit(codes, w)
			return
		}
		pair := m.Network.Pairs[step]
		cond := m.Conds[step]
		parentCodes := make([]int, len(pair.Parents))
		for j, par := range pair.Parents {
			c := codes[par.Attr]
			if par.Level > 0 {
				c = m.Attrs[par.Attr].Generalize(par.Level, c)
			}
			parentCodes[j] = c
		}
		x := pair.X.Attr
		for v := 0; v < m.Attrs[x].Size(); v++ {
			codes[x] = v
			walk(step+1, w*cond.Prob(parentCodes, v))
		}
	}
	walk(0, 1)
	if d == 0 {
		visit(codes, 1)
	}
}

// bruteQuery answers a compiled query class by full-joint enumeration:
// the marginal over attrs (at the given levels) restricted to the
// allowed sets in masks (nil mask = unconstrained).
func bruteQuery(m *Model, attrs []int, levels []int, masks map[int][]bool) []float64 {
	dims := make([]int, len(attrs))
	size := 1
	for i, a := range attrs {
		dims[i] = m.Attrs[a].SizeAt(levels[i])
		size *= dims[i]
	}
	out := make([]float64, size)
	jointWalk(m, func(codes []int, p float64) {
		for a, mask := range masks {
			if !mask[codes[a]] {
				return
			}
		}
		o := 0
		for i, a := range attrs {
			c := codes[a]
			if levels[i] > 0 {
				c = m.Attrs[a].Generalize(levels[i], c)
			}
			o = o*dims[i] + c
		}
		out[o] += p
	})
	return out
}

// TestQueryMarginalBitIdenticalToInferMarginal: on the query class the
// retired InferMarginal answered — raw-level marginals, no evidence —
// Query must return the very bits of the direct engine call it made,
// at every parallelism setting.
func TestQueryMarginalBitIdenticalToInferMarginal(t *testing.T) {
	m, _ := noiselessModel(t, 31)
	names := []string{"a", "b", "c", "d", "e", "f"}
	for _, attrs := range [][]int{{0}, {3}, {1, 4}, {5, 0, 2}, {2, 1, 0, 3}} {
		targets := make([]infer.Target, len(attrs))
		for i, a := range attrs {
			targets[i] = infer.Target{Attr: a}
		}
		legacy, err := m.engine().Joint(context.Background(), targets, nil, infer.Options{Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		qNames := make([]string, len(attrs))
		for i, a := range attrs {
			qNames[i] = names[a]
		}
		for _, par := range []int{0, 1, 2, 4} {
			res, err := m.Query(context.Background(), Marginal(qNames...), QueryParallelism(par))
			if err != nil {
				t.Fatal(err)
			}
			if len(res.P) != len(legacy.P) {
				t.Fatalf("attrs %v: %d cells, legacy %d", attrs, len(res.P), len(legacy.P))
			}
			for i := range legacy.P {
				if res.P[i] != legacy.P[i] {
					t.Fatalf("attrs %v parallelism %d cell %d: Query %v, engine %v (bit-identity)",
						attrs, par, i, res.P[i], legacy.P[i])
				}
			}
		}
	}
}

// TestQueryMarginalMatchesBruteForce: marginals agree with full-joint
// enumeration.
func TestQueryMarginalMatchesBruteForce(t *testing.T) {
	m, _ := noiselessModel(t, 32)
	for _, names := range [][]string{{"a"}, {"c", "f"}, {"e", "b", "a"}} {
		res, err := m.Query(context.Background(), Marginal(names...))
		if err != nil {
			t.Fatal(err)
		}
		attrs := make([]int, len(names))
		levels := make([]int, len(names))
		for i, nm := range names {
			attrs[i], err = m.attrIndex(nm)
			if err != nil {
				t.Fatal(err)
			}
		}
		want := bruteQuery(m, attrs, levels, nil)
		for i := range want {
			if math.Abs(res.P[i]-want[i]) > 1e-12 {
				t.Fatalf("marginal %v cell %d: got %v, want %v", names, i, res.P[i], want[i])
			}
		}
	}
}

// TestQueryConditionalMatchesBruteForce: conditionals with equality and
// set-membership evidence agree with the normalized brute-force answer,
// and merging several predicates on one attribute unions the sets.
func TestQueryConditionalMatchesBruteForce(t *testing.T) {
	m, _ := noiselessModel(t, 33)
	cases := []struct {
		q     Query
		attrs []int
		masks map[int][]bool
	}{
		{
			Conditional([]string{"b"}, Eq("a", "1")),
			[]int{1},
			map[int][]bool{0: {false, true}},
		},
		{
			Conditional([]string{"d", "f"}, In("a", "0", "1"), Eq("c", "0")),
			[]int{3, 5},
			map[int][]bool{0: {true, true}, 2: {true, false}},
		},
		{
			// Two predicates on one attribute merge into one union mask.
			Marginal("e").Given(Eq("b", "0"), Eq("b", "1")),
			[]int{4},
			map[int][]bool{1: {true, true}},
		},
	}
	for _, tc := range cases {
		res, err := m.Query(context.Background(), tc.q)
		if err != nil {
			t.Fatal(err)
		}
		if res.Kind != "conditional" {
			t.Fatalf("kind = %q, want conditional", res.Kind)
		}
		levels := make([]int, len(tc.attrs))
		want := bruteQuery(m, tc.attrs, levels, tc.masks)
		var mass float64
		for _, p := range want {
			mass += p
		}
		for i := range want {
			if math.Abs(res.P[i]-want[i]/mass) > 1e-12 {
				t.Fatalf("%+v cell %d: got %v, want %v", tc.q, i, res.P[i], want[i]/mass)
			}
		}
		if s := sum(res.P); math.Abs(s-1) > 1e-12 {
			t.Fatalf("conditional mass %v, want 1", s)
		}
	}
}

func sum(p []float64) float64 {
	var s float64
	for _, v := range p {
		s += v
	}
	return s
}

// TestQueryProbAndCount: scalar queries match brute force, and Count is
// N times Prob.
func TestQueryProbAndCount(t *testing.T) {
	m, _ := noiselessModel(t, 34)
	masks := map[int][]bool{0: {false, true}, 3: {true, false}}
	want := sum(bruteQuery(m, nil, nil, masks))

	prob, err := m.Query(context.Background(), Prob(Eq("a", "1"), Eq("d", "0")))
	if err != nil {
		t.Fatal(err)
	}
	if prob.Kind != "prob" || len(prob.P) != 0 {
		t.Fatalf("prob result = %+v, want scalar", prob)
	}
	if math.Abs(prob.Value-want) > 1e-12 {
		t.Fatalf("Prob = %v, want %v", prob.Value, want)
	}

	count, err := m.Query(context.Background(), Count(10000, Eq("a", "1"), Eq("d", "0")))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(count.Value-10000*want) > 1e-7 {
		t.Fatalf("Count = %v, want %v", count.Value, 10000*want)
	}
}

// TestQueryAtLevel: rolled-up marginals aggregate the raw marginal
// through the taxonomy tree.
func TestQueryAtLevel(t *testing.T) {
	ds := mixedData(4000, 35)
	rng := rand.New(rand.NewSource(36))
	m, err := Fit(context.Background(), ds, Options{
		Epsilon: 0.05, Beta: 0.3, Theta: 4,
		Mode: ModeGeneral, Score: score.R, UseHierarchy: true, Rand: rng,
		InfiniteMarginalBudget: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := m.Query(context.Background(), Marginal("city"))
	if err != nil {
		t.Fatal(err)
	}
	ci, _ := m.attrIndex("city")
	rolled, err := m.Query(context.Background(), Marginal("city").AtLevel("city", 1))
	if err != nil {
		t.Fatal(err)
	}
	if rolled.Levels[0] != 1 || rolled.Dims[0] != m.Attrs[ci].SizeAt(1) {
		t.Fatalf("rolled result = %+v", rolled)
	}
	want := make([]float64, rolled.Dims[0])
	for c, p := range raw.P {
		want[m.Attrs[ci].Generalize(1, c)] += p
	}
	for i := range want {
		if math.Abs(rolled.P[i]-want[i]) > 1e-12 {
			t.Fatalf("level-1 cell %d: got %v, want %v", i, rolled.P[i], want[i])
		}
	}
}

// TestQueryContinuousValueSelectsBin: a plain number as a predicate
// value on a continuous attribute selects the bin containing it.
func TestQueryContinuousValueSelectsBin(t *testing.T) {
	ds := mixedData(4000, 37)
	rng := rand.New(rand.NewSource(38))
	m, err := Fit(context.Background(), ds, Options{
		Epsilon: 0.05, Beta: 0.3, Theta: 4,
		Mode: ModeGeneral, Score: score.R, UseHierarchy: true, Rand: rng,
		InfiniteMarginalBudget: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	vi, _ := m.attrIndex("v")
	bin := m.Attrs[vi].Bin(2.5)
	marg, err := m.Query(context.Background(), Marginal("v"))
	if err != nil {
		t.Fatal(err)
	}
	prob, err := m.Query(context.Background(), Prob(Eq("v", "2.5")))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(prob.Value-marg.P[bin]) > 1e-12 {
		t.Fatalf("Prob(v=2.5) = %v, want bin %d mass %v", prob.Value, bin, marg.P[bin])
	}
}

// TestQueryImpossibleEvidence: conditioning on evidence the model gives
// zero mass fails with ErrImpossibleEvidence.
func TestQueryImpossibleEvidence(t *testing.T) {
	// "a" is constant in the data, so the noiseless model puts zero mass
	// on a=1.
	attrs := []dataset.Attribute{
		dataset.NewCategorical("a", []string{"0", "1"}),
		dataset.NewCategorical("b", []string{"0", "1"}),
	}
	ds := dataset.New(attrs)
	rng := rand.New(rand.NewSource(39))
	for i := 0; i < 2000; i++ {
		ds.Append([]uint16{0, uint16(rng.Intn(2))})
	}
	m, err := Fit(context.Background(), ds, Options{
		Epsilon: 1, Beta: 0.3, Theta: 4, K: 1,
		Mode: ModeBinary, Score: score.F, Rand: rng,
		InfiniteNetworkBudget: true, InfiniteMarginalBudget: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = m.Query(context.Background(), Conditional([]string{"b"}, Eq("a", "1")))
	if !errors.Is(err, ErrImpossibleEvidence) {
		t.Fatalf("err = %v, want ErrImpossibleEvidence", err)
	}
}

// TestQueryErrors: every malformed query is rejected at compile time
// with a descriptive error, never a panic.
func TestQueryErrors(t *testing.T) {
	m, _ := noiselessModel(t, 41)
	cases := []struct {
		name string
		q    Query
	}{
		{"unknown attribute", Marginal("nope")},
		{"empty marginal", Marginal()},
		{"bad level", Marginal("a").AtLevel("a", 9)},
		{"negative level", Marginal("a").AtLevel("a", -1)},
		{"prob with targets", Query{Kind: QueryProb, Attrs: []AttrRef{{Name: "a"}}, Where: []Predicate{Eq("b", "0")}}},
		{"prob without predicates", Prob()},
		{"count without predicates", Count(10)},
		{"negative count n", Count(-1, Eq("a", "0"))},
		{"unknown kind", Query{Kind: QueryKind(99)}},
		{"unknown value", Prob(Eq("a", "2"))},
		{"empty predicate", Prob(Predicate{Attr: "a"})},
		{"unknown predicate attribute", Prob(Eq("nope", "0"))},
		{"target is also evidence", Marginal("a").Given(Eq("a", "0"))},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := m.Query(context.Background(), tc.q); err == nil {
				t.Fatal("expected an error")
			}
		})
	}
}

// TestQueryMaxCells: the QueryMaxCells option caps the intermediate
// factor with an error wrapping infer.ErrTooLarge.
func TestQueryMaxCells(t *testing.T) {
	m, _ := noiselessModel(t, 42)
	_, err := m.Query(context.Background(), Marginal("a", "b", "c", "d", "e", "f"), QueryMaxCells(4))
	if !errors.Is(err, infer.ErrTooLarge) {
		t.Fatalf("err = %v, want infer.ErrTooLarge", err)
	}
}

// TestQueryNilContext: a nil context is accepted (treated as
// context.Background) for ergonomic call sites.
func TestQueryNilContext(t *testing.T) {
	m, _ := noiselessModel(t, 43)
	if _, err := m.Query(nil, Marginal("a")); err != nil { //nolint:staticcheck
		t.Fatal(err)
	}
}

// TestQueryCancelled: a cancelled context aborts the query.
func TestQueryCancelled(t *testing.T) {
	m, _ := noiselessModel(t, 44)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := m.Query(ctx, Marginal("a", "b")); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestQueryConcurrent: a fitted model is immutable, so concurrent
// queries of every kind must be race-free and agree with the serial
// answers (run under -race in CI).
func TestQueryConcurrent(t *testing.T) {
	m, _ := noiselessModel(t, 45)
	serial, err := m.Query(context.Background(), Marginal("b", "d"))
	if err != nil {
		t.Fatal(err)
	}
	queries := []Query{
		Marginal("b", "d"),
		Conditional([]string{"c"}, Eq("a", "0")),
		Prob(Eq("e", "1")),
		Count(500, Eq("f", "0")),
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < 8; it++ {
				q := queries[(g+it)%len(queries)]
				res, err := m.Query(context.Background(), q, QueryParallelism(1+g%4))
				if err != nil {
					errs <- err
					return
				}
				if q.Kind == QueryMarginal {
					for i := range serial.P {
						if res.P[i] != serial.P[i] {
							errs <- errors.New("concurrent marginal diverged from serial answer")
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestQueryKindString: wire names are stable — the server protocol
// depends on them.
func TestQueryKindString(t *testing.T) {
	want := map[QueryKind]string{
		QueryMarginal:    "marginal",
		QueryConditional: "conditional",
		QueryProb:        "prob",
		QueryCount:       "count",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(k), k.String(), s)
		}
	}
}

// TestQueryResultTable: table-valued results round-trip into
// marginal.Table; scalar results yield nil.
func TestQueryResultTable(t *testing.T) {
	m, _ := noiselessModel(t, 46)
	res, err := m.Query(context.Background(), Marginal("a", "c"))
	if err != nil {
		t.Fatal(err)
	}
	tab := res.Table()
	if tab == nil || len(tab.P) != len(res.P) {
		t.Fatalf("Table() = %+v", tab)
	}
	if got := tab.P[tab.Index([]int{1, 0})]; got != res.P[1*res.Dims[1]+0] {
		t.Fatalf("Table index mismatch: %v", got)
	}
	scalar, err := m.Query(context.Background(), Prob(Eq("a", "0")))
	if err != nil {
		t.Fatal(err)
	}
	if scalar.Table() != nil {
		t.Fatal("scalar result should have no table")
	}
}
