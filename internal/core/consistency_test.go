package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"privbayes/internal/marginal"
	"privbayes/internal/score"
)

func noisyJoints(t *testing.T, seed int64) ([]*marginal.Table, Network) {
	t.Helper()
	ds := chainData(4000, seed)
	sc := score.NewScorer(score.F, ds)
	rng := rand.New(rand.NewSource(seed + 1))
	net := greedyBinary(t, ds, 2, math.Inf(1), sc, 1, rng)
	var joints []*marginal.Table
	for _, pair := range net.Pairs {
		j := marginal.Materialize(ds, pair.Vars())
		j.AddLaplace(rng, 0.02)
		j.ClampNormalize()
		joints = append(joints, j)
	}
	return joints, net
}

// After enforcement, every pair of joints sharing a variable must imply
// (nearly) the same 1-way marginal for it.
func TestEnforceConsistencyAgreement(t *testing.T) {
	joints, _ := noisyJoints(t, 41)
	EnforceConsistency(joints, 8)
	type seen struct {
		table int
		pos   int
	}
	byVar := map[marginal.Var][]seen{}
	for ti, j := range joints {
		for pi, v := range j.Vars {
			byVar[v] = append(byVar[v], seen{ti, pi})
		}
	}
	for v, list := range byVar {
		if len(list) < 2 {
			continue
		}
		ref := projectVar(joints[list[0].table], list[0].pos)
		for _, s := range list[1:] {
			got := projectVar(joints[s.table], s.pos)
			for c := range ref {
				if math.Abs(ref[c]-got[c]) > 0.02 {
					t.Errorf("variable %v: marginals disagree after enforcement: %v vs %v", v, ref, got)
				}
			}
		}
	}
}

func TestEnforceConsistencyPreservesMass(t *testing.T) {
	joints, _ := noisyJoints(t, 42)
	EnforceConsistency(joints, 3)
	for i, j := range joints {
		if math.Abs(j.Sum()-1) > 1e-9 {
			t.Errorf("joint %d mass = %v after enforcement", i, j.Sum())
		}
		for _, p := range j.P {
			if p < -1e-12 {
				t.Fatalf("joint %d has negative cell %v", i, p)
			}
		}
	}
}

// Averaging independent noisy estimates reduces variance: with
// consistency on, the implied 1-way marginals should on average be
// closer to the truth.
func TestConsistencyImprovesSharedMarginals(t *testing.T) {
	ds := chainData(4000, 43)
	var errOn, errOff float64
	const reps = 5
	for r := 0; r < reps; r++ {
		for _, consistent := range []bool{false, true} {
			rng := rand.New(rand.NewSource(int64(100 + r)))
			m, err := Fit(context.Background(), ds, Options{
				Epsilon: 0.05, Beta: 0.3, Theta: 4, K: 2,
				Mode: ModeBinary, Score: score.F, Rand: rng,
				Consistency: consistent,
			})
			if err != nil {
				t.Fatal(err)
			}
			syn := m.SampleP(20000, rng, 0)
			var e float64
			for a := 0; a < ds.D(); a++ {
				vars := []marginal.Var{{Attr: a}}
				e += marginal.TVD(marginal.Materialize(ds, vars), marginal.Materialize(syn, vars))
			}
			if consistent {
				errOn += e
			} else {
				errOff += e
			}
		}
	}
	if errOn > errOff*1.1 {
		t.Errorf("consistency post-processing degraded 1-way marginals: on=%v off=%v", errOn/reps, errOff/reps)
	}
}

func TestEnforceConsistencyNoSharedVars(t *testing.T) {
	a := &marginal.Table{Vars: []marginal.Var{{Attr: 0}}, Dims: []int{2}, P: []float64{0.4, 0.6}}
	b := &marginal.Table{Vars: []marginal.Var{{Attr: 1}}, Dims: []int{2}, P: []float64{0.7, 0.3}}
	EnforceConsistency([]*marginal.Table{a, b}, 3)
	if a.P[0] != 0.4 || b.P[0] != 0.7 {
		t.Error("disjoint tables must be untouched")
	}
}

func TestEnforceConsistencyGeneralizedVarsDistinct(t *testing.T) {
	// The same attribute at different levels is NOT the same variable;
	// enforcement must not try to reconcile domains of different sizes.
	a := &marginal.Table{Vars: []marginal.Var{{Attr: 0, Level: 0}}, Dims: []int{4}, P: []float64{0.25, 0.25, 0.25, 0.25}}
	b := &marginal.Table{Vars: []marginal.Var{{Attr: 0, Level: 1}}, Dims: []int{2}, P: []float64{0.5, 0.5}}
	EnforceConsistency([]*marginal.Table{a, b}, 3) // must not panic
}
