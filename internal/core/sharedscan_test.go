package core

// Tests pinning the shared-scan integration: the cached joint
// materialization inside NoisyConditionals* must be bit-identical to the
// uncached MaterializeP route at every parallelism, and bounding the
// scorer memo must never change a fitted model.

import (
	"bytes"
	"context"
	"math/rand"
	"testing"

	"privbayes/internal/marginal"
	"privbayes/internal/score"
)

// TestMaterializeJointCachedBitIdentical checks the index-cache route
// against marginal.MaterializeP at every parallelism.
func TestMaterializeJointCachedBitIdentical(t *testing.T) {
	ds := chainData(2999, 31) // odd n: 1/n inexact, normalization drift would show
	pair := APPair{
		X:       marginal.Var{Attr: 3},
		Parents: []marginal.Var{{Attr: 0}, {Attr: 2}},
	}
	for _, par := range []int{1, 2, 4} {
		cache := marginal.NewIndexCache(0)
		want := marginal.MaterializeP(ds, pair.Vars(), par)
		got, err := materializeJoint(ds, pair, par, cache, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want.P {
			if got.P[i] != want.P[i] {
				t.Fatalf("parallelism %d cell %d: cached %v, uncached %v", par, i, got.P[i], want.P[i])
			}
		}
		// Second call hits the cached parent index; still identical.
		again, err := materializeJoint(ds, pair, par, cache, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want.P {
			if again.P[i] != want.P[i] {
				t.Fatalf("parallelism %d cell %d differs on cache hit", par, i)
			}
		}
	}
}

// TestNoisyConditionalsCachedBitIdentical runs the full conditional
// stage with and without a warmed index cache under identical noise
// streams; every conditional block must match byte for byte.
func TestNoisyConditionalsCachedBitIdentical(t *testing.T) {
	ds := chainData(2500, 32)
	sc := score.NewScorer(score.F, ds)
	net := greedyBinary(t, ds, 2, 0.5, sc, 2, rand.New(rand.NewSource(9)))
	for _, par := range []int{1, 2, 4} {
		want, err := noisyConditionalsBinary(context.Background(), ds, net, 2, 1.0, false, false, par, rand.New(rand.NewSource(10)), nil, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := noisyConditionalsBinary(context.Background(), ds, net, 2, 1.0, false, false, par, rand.New(rand.NewSource(10)), sc.Indexes(), nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			for j := range want[i].P {
				if got[i].P[j] != want[i].P[j] {
					t.Fatalf("parallelism %d: conditional %d cell %d = %v, want %v", par, i, j, got[i].P[j], want[i].P[j])
				}
			}
		}
	}
}

// TestFitBoundedScorerCacheBitIdentical checks ScorerCacheSize is purely
// a memory bound: the fitted model is byte-equal to the unbounded run.
func TestFitBoundedScorerCacheBitIdentical(t *testing.T) {
	for _, mode := range []Mode{ModeBinary, ModeGeneral} {
		fit := func(cacheSize int) []byte {
			var opt Options
			if mode == ModeBinary {
				opt = Options{Epsilon: 0.8, Beta: 0.3, Theta: 4, K: 2, Mode: ModeBinary,
					Score: score.F, Parallelism: 2, ScorerCacheSize: cacheSize,
					Rand: rand.New(rand.NewSource(11))}
			} else {
				opt = Options{Epsilon: 0.8, Beta: 0.3, Theta: 4, Mode: ModeGeneral,
					Score: score.R, UseHierarchy: true, Parallelism: 2, ScorerCacheSize: cacheSize,
					Rand: rand.New(rand.NewSource(11))}
			}
			var ds = chainData(2000, 33)
			if mode == ModeGeneral {
				ds = mixedData(2000, 33)
			}
			m, err := Fit(context.Background(), ds, opt)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := m.WriteJSON(&buf, 0.8); err != nil {
				t.Fatal(err)
			}
			return buf.Bytes()
		}
		if !bytes.Equal(fit(0), fit(3)) {
			t.Errorf("mode %v: bounded scorer cache changed the fitted model", mode)
		}
	}
}
