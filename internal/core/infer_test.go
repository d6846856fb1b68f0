package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"privbayes/internal/marginal"
	"privbayes/internal/score"
)

func noiselessModel(t *testing.T, seed int64) (*Model, *rand.Rand) {
	t.Helper()
	ds := chainData(6000, seed)
	rng := rand.New(rand.NewSource(seed + 1))
	m, err := Fit(context.Background(), ds, Options{
		Epsilon: 1, Beta: 0.3, Theta: 4, K: 2,
		Mode: ModeBinary, Score: score.F, Rand: rng,
		InfiniteNetworkBudget: true, InfiniteMarginalBudget: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m, rng
}

// queryMarginal answers the raw-level marginal over the attribute
// indices attrs through Model.Query.
func queryMarginal(m *Model, attrs []int, opts ...QueryOption) (*marginal.Table, error) {
	names := make([]string, len(attrs))
	for i, a := range attrs {
		names[i] = m.Attrs[a].Name
	}
	res, err := m.Query(context.Background(), Marginal(names...), opts...)
	if err != nil {
		return nil, err
	}
	return res.Table(), nil
}

// With a noise-free model, the marginal of an AP pair's own variables
// must reproduce the empirical joint exactly.
func TestInferMarginalExactOnModelPairs(t *testing.T) {
	ds := chainData(6000, 21)
	rng := rand.New(rand.NewSource(22))
	m, err := Fit(context.Background(), ds, Options{
		Epsilon: 1, Beta: 0.3, Theta: 4, K: 2,
		Mode: ModeBinary, Score: score.F, Rand: rng,
		InfiniteNetworkBudget: true, InfiniteMarginalBudget: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, pair := range m.Network.Pairs {
		attrs := []int{pair.X.Attr}
		for _, p := range pair.Parents {
			attrs = append(attrs, p.Attr)
		}
		got, err := queryMarginal(m, attrs)
		if err != nil {
			t.Fatal(err)
		}
		vars := make([]marginal.Var, len(attrs))
		for i, a := range attrs {
			vars[i] = marginal.Var{Attr: a}
		}
		want := marginal.Materialize(ds, vars)
		if tvd := marginal.TVD(want, got); tvd > 1e-9 {
			t.Errorf("pair over %v: inferred marginal TVD = %v", attrs, tvd)
		}
	}
}

// Inference must agree with a large sample from the same model, but
// without the sampling error — the motivation in Section 7.
func TestInferMarginalMatchesSampling(t *testing.T) {
	m, rng := noiselessModel(t, 23)
	syn := m.SampleP(60000, rng, 0)
	attrs := []int{0, 2}
	inferred, err := queryMarginal(m, attrs)
	if err != nil {
		t.Fatal(err)
	}
	vars := []marginal.Var{{Attr: 0}, {Attr: 2}}
	sampled := marginal.Materialize(syn, vars)
	if tvd := marginal.TVD(inferred, sampled); tvd > 0.01 {
		t.Errorf("inferred vs sampled TVD = %v", tvd)
	}
}

func TestInferMarginalSumsToOne(t *testing.T) {
	m, _ := noiselessModel(t, 24)
	for _, attrs := range [][]int{{0}, {1, 3}, {5, 0, 2}} {
		got, err := queryMarginal(m, attrs)
		if err != nil {
			t.Fatal(err)
		}
		var sum float64
		for _, p := range got.P {
			sum += p
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("marginal over %v sums to %v", attrs, sum)
		}
	}
}

func TestInferMarginalRespectsOrder(t *testing.T) {
	m, _ := noiselessModel(t, 25)
	ab, err := queryMarginal(m, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	ba, err := queryMarginal(m, []int{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	// Pr[a=1, b=0] must appear transposed.
	if math.Abs(ab.P[ab.Index([]int{1, 0})]-ba.P[ba.Index([]int{0, 1})]) > 1e-12 {
		t.Error("inferred marginals not consistent under reordering")
	}
}

func TestInferMarginalCellCap(t *testing.T) {
	m, _ := noiselessModel(t, 26)
	if _, err := queryMarginal(m, []int{0, 1, 2, 3, 4, 5}, QueryMaxCells(4)); err == nil {
		t.Error("tiny cell cap should force an error")
	}
}

func TestInferMarginalBadAttr(t *testing.T) {
	m, _ := noiselessModel(t, 27)
	if _, err := m.Query(context.Background(), Marginal("a", "nope")); err == nil {
		t.Error("unknown attribute should error")
	}
}

// Inference through generalized parents must agree with sampling as
// well (exercises the Generalize path of multiplyConditional).
func TestInferMarginalGeneralizedParents(t *testing.T) {
	ds := mixedData(6000, 28)
	rng := rand.New(rand.NewSource(29))
	m, err := Fit(context.Background(), ds, Options{
		Epsilon: 0.05, Beta: 0.3, Theta: 4,
		Mode: ModeGeneral, Score: score.R, UseHierarchy: true, Rand: rng,
		InfiniteMarginalBudget: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	syn := m.SampleP(80000, rng, 0)
	inferred, err := queryMarginal(m, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	sampled := marginal.Materialize(syn, []marginal.Var{{Attr: 0}, {Attr: 1}})
	if tvd := marginal.TVD(inferred, sampled); tvd > 0.01 {
		t.Errorf("generalized-parent inference vs sampling TVD = %v", tvd)
	}
}
