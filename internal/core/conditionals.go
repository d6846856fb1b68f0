package core

import (
	"context"
	"fmt"
	"math/rand"

	"privbayes/internal/dataset"
	"privbayes/internal/marginal"
	"privbayes/internal/parallel"
)

// noisyConditionalsBinary implements Algorithm 1: for pairs i ∈ [k+1, d]
// (0-indexed [k, d)) it materializes the (k+1)-dimensional joint
// Pr[Xᵢ, Πᵢ], perturbs it with Laplace(2(d−k)/(n·ε₂)) noise, clamps and
// normalizes, and derives the conditional. The first k conditionals are
// derived from the noisy joint of pair k+1 at no extra privacy cost,
// relying on the chain structure GreedyBayesBinary guarantees
// (Xᵢ ∈ Π_{k+1} and Πᵢ ⊂ Π_{k+1} for i ≤ k).
//
// noNoise skips the Laplace step, which the harness uses for the
// BestMarginal reference of Figure 11. consistent additionally applies
// the mutual-consistency post-processing of EnforceConsistency to the
// noised joints before deriving conditionals (footnote 1 of the paper).
//
// The d−k joint materializations — each a full pass over the n rows, or
// a count-source request when cs is set — fan out across up to
// `parallelism` workers, both across tables and across row chunks
// within each table; Laplace noise is then injected serially in pair
// order from rng. Exact-count merging makes the joints worker-count
// independent, so the result is bit-identical at every parallelism for
// a fixed seed. A non-nil cache supplies the parent-configuration
// indexes the final greedy iterations already built (see
// materializeJoint).
func noisyConditionalsBinary(ctx context.Context, ds *dataset.Dataset, net Network, k int, eps2 float64, noNoise, consistent bool, parallelism int, rng *rand.Rand, cache *marginal.IndexCache, cs marginal.CountSource, progress *progressSink) ([]*marginal.Conditional, error) {
	d := len(net.Pairs)
	conds := make([]*marginal.Conditional, d)
	if d == 0 {
		return conds, nil
	}
	if k >= d {
		k = d - 1
	}
	n := float64(ds.N())
	scale := 2 * float64(d-k) / (n * eps2)

	if err := prefetchPairCounts(ctx, cs, net.Pairs[k:]); err != nil {
		return nil, err
	}
	progress.start(PhaseMarginals, d-k)
	jointErrs := make([]error, d-k)
	joints, err := parallel.MapCtx(ctx, parallel.Workers(parallelism), d-k, func(j int) *marginal.Table {
		t, err := materializeJoint(ds, net.Pairs[k+j], parallelism, cache, cs)
		if err != nil {
			jointErrs[j] = err
			return nil
		}
		progress.unit(PhaseMarginals, d-k)
		return t
	})
	if err != nil {
		return nil, err
	}
	for _, err := range jointErrs {
		if err != nil {
			return nil, err
		}
	}
	for _, joint := range joints {
		if !noNoise {
			joint.AddLaplace(rng, scale)
		}
		joint.ClampNormalize()
	}
	if consistent && !noNoise {
		EnforceConsistency(joints, 0)
	}
	// The noisy joint of pair k+1 (index k) anchors the derivation of
	// the head conditionals.
	anchor := joints[0]
	for i := k; i < d; i++ {
		conds[i] = marginal.ConditionalFromJoint(joints[i-k])
	}
	for i := 0; i < k; i++ {
		pair := net.Pairs[i]
		sub, err := projectOnto(anchor, pair)
		if err != nil {
			return nil, err
		}
		conds[i] = marginal.ConditionalFromJoint(sub)
	}
	return conds, nil
}

// materializeJoint produces the empirical joint Pr[Π, X] of one AP pair.
// In counts mode the integer counts come from cs; with a
// parent-configuration index cache (the scorer's, inside Fit) the parent
// scan the final greedy iterations already paid is reused and only the
// child column is walked; otherwise it falls back to
// marginal.MaterializeP. Every route merges exact integer counts and
// normalizes by one 1/n scale, so all three are bit-identical at every
// parallelism.
func materializeJoint(ds *dataset.Dataset, pair APPair, parallelism int, cache *marginal.IndexCache, cs marginal.CountSource) (*marginal.Table, error) {
	n := ds.N()
	var t *marginal.Table
	switch {
	case cs != nil:
		ts, err := cs.CountTables(pair.Parents, []marginal.Var{pair.X})
		if err != nil {
			return nil, err
		}
		t = ts[0]
	case cache == nil || n == 0:
		return marginal.MaterializeP(ds, pair.Vars(), parallelism), nil
	default:
		if _, ok := marginal.ParentConfigs(ds, pair.Parents); !ok {
			return marginal.MaterializeP(ds, pair.Vars(), parallelism), nil
		}
		ix := cache.Get(ds, pair.Parents, parallelism)
		t = ix.CountChildren(ds, []marginal.Var{pair.X}, parallelism)[0]
	}
	t.Scale(1 / float64(n))
	return t, nil
}

// prefetchPairCounts batches the AP pairs' joints into one count-source
// pass when the source supports it — one scan covers the whole
// distribution-learning phase of an out-of-core fit.
func prefetchPairCounts(ctx context.Context, cs marginal.CountSource, pairs []APPair) error {
	bcs, ok := cs.(marginal.BatchCountSource)
	if !ok {
		return nil
	}
	reqs := make([]marginal.CountRequest, len(pairs))
	for i, pair := range pairs {
		reqs[i] = marginal.CountRequest{Parents: pair.Parents, Children: []marginal.Var{pair.X}}
	}
	return bcs.Prefetch(ctx, reqs)
}

// projectOnto marginalizes the anchor joint onto [pair.Parents...,
// pair.X], verifying the containment property Algorithm 1 relies on.
func projectOnto(anchor *marginal.Table, pair APPair) (*marginal.Table, error) {
	want := pair.Vars()
	for _, v := range want {
		found := false
		for _, av := range anchor.Vars {
			if av == v {
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("core: pair (%v | %v) not derivable from anchor marginal %v", pair.X, pair.Parents, anchor.Vars)
		}
	}
	return anchor.MarginalizeOnto(want), nil
}

// noisyConditionalsGeneral implements Algorithm 3: every one of the d
// AP-pair joints is materialized and perturbed with Laplace(2d/(n·ε₂))
// noise, then clamped, normalized and conditioned. Materialization fans
// out across up to `parallelism` workers, across tables and across row
// chunks within each table; the noise draws stay serial in pair order,
// keeping the output bit-identical at every parallelism (see
// noisyConditionalsBinary for the contract).
func noisyConditionalsGeneral(ctx context.Context, ds *dataset.Dataset, net Network, eps2 float64, noNoise, consistent bool, parallelism int, rng *rand.Rand, cache *marginal.IndexCache, cs marginal.CountSource, progress *progressSink) ([]*marginal.Conditional, error) {
	d := len(net.Pairs)
	conds := make([]*marginal.Conditional, d)
	n := float64(ds.N())
	scale := 2 * float64(d) / (n * eps2)
	if err := prefetchPairCounts(ctx, cs, net.Pairs); err != nil {
		return nil, err
	}
	progress.start(PhaseMarginals, d)
	jointErrs := make([]error, d)
	joints, err := parallel.MapCtx(ctx, parallel.Workers(parallelism), d, func(i int) *marginal.Table {
		t, err := materializeJoint(ds, net.Pairs[i], parallelism, cache, cs)
		if err != nil {
			jointErrs[i] = err
			return nil
		}
		progress.unit(PhaseMarginals, d)
		return t
	})
	if err != nil {
		return nil, err
	}
	for _, err := range jointErrs {
		if err != nil {
			return nil, err
		}
	}
	for _, joint := range joints {
		if !noNoise {
			joint.AddLaplace(rng, scale)
		}
		joint.ClampNormalize()
	}
	if consistent && !noNoise {
		EnforceConsistency(joints, 0)
	}
	for i, joint := range joints {
		conds[i] = marginal.ConditionalFromJoint(joint)
	}
	return conds, nil
}
