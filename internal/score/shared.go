package score

// The shared-scan scoring engine. A greedy iteration of Algorithm 2
// scores C(|V|,k)·(d−|V|) candidates that share only C(|V|,k) distinct
// parent sets; the legacy path rescanned all n rows per candidate. Here
// ScoreBatch groups the uncached candidates by canonical parent set,
// pays one O(n·k) parent-configuration scan per group (reused across
// greedy iterations through the scorer's IndexCache), and materializes
// every child joint of the group in a single fused O(n) pass — cutting
// per-iteration scoring from O(#cand·n·k) to O(#Π·n·k + #cand·n).
//
// The engine's outputs are bit-identical to the legacy per-candidate
// path: joint counts merge exactly (integers), and marginal.Ladder
// converts counts into the very float values the serial Materialize
// accumulates, so MI, F and R see byte-equal inputs. Learned networks
// are therefore identical at every Parallelism setting, 1 included,
// while single-worker scoring itself runs several times faster.

import (
	"context"
	"fmt"

	"privbayes/internal/infotheory"
	"privbayes/internal/marginal"
	"privbayes/internal/parallel"
)

// batchWork is one distinct uncached pair in a batch: the child, the
// canonical identity, and every output slot awaiting the value.
type batchWork struct {
	x       marginal.Var
	canon   []marginal.Var // [sorted parents..., x]
	key     uint64
	outIdxs []int
	val     float64
}

// batchGroup collects the works sharing one parent set. parents keeps
// the first-seen order, which is the order the legacy memo would have
// materialized with — part of the bit-identity contract.
type batchGroup struct {
	parents []marginal.Var
	key     uint64 // hash of the canonical (sorted) parent set
	canon   []marginal.Var
	works   []*batchWork
}

// ScoreBatch evaluates every candidate pair through the shared-scan
// engine and returns the results in input order. Values are bit-identical
// to sequential Score calls at any parallelism — see the package note
// above — and every result lands in the memo, so a batch also serves as
// a parallel precompute for a scorer shared across runs. Parallelism
// fans out over parent-set groups, and over row chunks within a group
// when there are fewer groups than workers (<= 0 selects GOMAXPROCS).
func (s *Scorer) ScoreBatch(parallelism int, pairs []Pair) []float64 {
	out, err := s.ScoreBatchContext(context.Background(), parallelism, pairs)
	if err != nil {
		// Unreachable: the background context never ends.
		panic(err)
	}
	return out
}

// ScoreBatchContext is ScoreBatch with cancellation: when ctx ends it
// stops dispatching parent-set groups, discards the partial batch
// (nothing is memoized) and returns ctx.Err(). A nil error guarantees
// the full, bit-identical result vector.
func (s *Scorer) ScoreBatchContext(ctx context.Context, parallelism int, pairs []Pair) ([]float64, error) {
	out := make([]float64, len(pairs))
	if len(pairs) == 0 {
		return out, nil
	}
	if s.ds.N() == 0 {
		// Degenerate dataset: the legacy path's uniform-table semantics.
		for i, p := range pairs {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			out[i] = s.Score(p.X, p.Parents)
		}
		return out, nil
	}

	groups, works := s.planBatch(pairs, out)
	if len(groups) > 0 {
		// A batchable count source satisfies the whole batch's missing
		// tables in one pass over the data before the groups fan out —
		// this is what bounds the out-of-core fit to one full scan per
		// greedy iteration.
		if bcs, ok := s.cs.(marginal.BatchCountSource); ok {
			reqs := make([]marginal.CountRequest, len(groups))
			for i, g := range groups {
				children := make([]marginal.Var, len(g.works))
				for j, w := range g.works {
					children[j] = w.x
				}
				reqs[i] = marginal.CountRequest{Parents: g.parents, Children: children}
			}
			if err := bcs.Prefetch(ctx, reqs); err != nil {
				return nil, err
			}
		}

		workers := parallel.Workers(parallelism)
		inner := workers / len(groups)
		if inner < 1 {
			inner = 1
		}
		groupErrs := make([]error, len(groups))
		if err := parallel.ForCtx(ctx, workers, len(groups), func(gi int) {
			groupErrs[gi] = s.scoreGroup(groups[gi], inner)
		}); err != nil {
			return nil, err
		}
		for _, err := range groupErrs {
			if err != nil {
				return nil, err
			}
		}

		s.mu.Lock()
		for _, w := range works {
			s.memo.PutIfAbsent(w.key, w.canon, w.val)
		}
		s.mu.Unlock()
		for _, w := range works {
			for _, i := range w.outIdxs {
				out[i] = w.val
			}
		}
	}
	return out, nil
}

// planBatch resolves memo hits into out and partitions the remaining
// distinct pairs into parent-set groups, preserving first-seen order for
// groups and works so the whole plan is independent of parallelism.
func (s *Scorer) planBatch(pairs []Pair, out []float64) ([]*batchGroup, []*batchWork) {
	var groups []*batchGroup
	var works []*batchWork
	workByKey := make(map[uint64][]*batchWork)
	groupByKey := make(map[uint64][]*batchGroup)

	s.mu.Lock()
	defer s.mu.Unlock()
	for i, p := range pairs {
		canon := canonPair(p.X, p.Parents)
		key := marginal.VarsKey(canon)
		if v, ok := s.memo.Get(key, canon); ok {
			out[i] = v
			continue
		}
		var w *batchWork
		for _, cand := range workByKey[key] {
			if varsEq(cand.canon, canon) {
				w = cand
				break
			}
		}
		if w != nil {
			w.outIdxs = append(w.outIdxs, i)
			continue
		}
		w = &batchWork{x: p.X, canon: canon, key: key, outIdxs: []int{i}}
		workByKey[key] = append(workByKey[key], w)
		works = append(works, w)

		pcanon := canon[:len(canon)-1]
		pkey := marginal.VarsKey(pcanon)
		var g *batchGroup
		for _, cand := range groupByKey[pkey] {
			if varsEq(cand.canon, pcanon) {
				g = cand
				break
			}
		}
		if g == nil {
			g = &batchGroup{
				parents: append([]marginal.Var(nil), p.Parents...),
				key:     pkey,
				canon:   pcanon,
			}
			groupByKey[pkey] = append(groupByKey[pkey], g)
			groups = append(groups, g)
		}
		g.works = append(g.works, w)
	}
	return groups, works
}

// scoreGroup materializes every child joint of one parent-set group —
// with a single fused scan in row mode, or from the count source in
// counts mode — and evaluates the score function on each. The
// post-joint arithmetic is identical in both modes, and the joints are
// integer-equal, so so are the scores.
func (s *Scorer) scoreGroup(g *batchGroup, parallelism int) error {
	if _, ok := marginal.ParentConfigs(s.ds, g.parents); !ok {
		if s.cs != nil {
			// The row-mode fallback rescans rows per candidate; out of
			// core there are no rows. Unreachable under θ-usefulness
			// domain caps.
			return fmt.Errorf("score: parent set %v overflows the code domain; not scorable out of core", g.parents)
		}
		// Configuration space exceeds the uint32 code domain; fall back
		// to the per-candidate path for this (pathological) group.
		for _, w := range g.works {
			w.val = s.compute(w.x, g.parents)
		}
		return nil
	}
	if s.Fn == F {
		for _, v := range g.parents {
			if v.Size(s.ds) != 2 {
				panic("score: F requires binary parent attributes")
			}
		}
		for _, w := range g.works {
			if w.x.Size(s.ds) != 2 {
				panic("score: F requires a binary child attribute")
			}
		}
	}

	children := make([]marginal.Var, len(g.works))
	for j, w := range g.works {
		children[j] = w.x
	}
	var joints []*marginal.Table
	if s.cs != nil {
		var err error
		joints, err = s.cs.CountTables(g.parents, children)
		if err != nil {
			return err
		}
	} else {
		ix := s.idx.Get(s.ds, g.parents, parallelism)
		joints = ix.CountChildren(s.ds, children, parallelism)
	}

	n := s.ds.N()
	switch s.Fn {
	case F:
		for j, w := range g.works {
			w.val = FScoreFromCounts(joints[j].P, n)
		}
	case MI:
		lad := s.idx.Ladder(n)
		for j, w := range g.works {
			lad.Apply(joints[j])
			w.val = infotheory.MutualInformationSplit(joints[j])
		}
	case R:
		lad := s.idx.Ladder(n)
		for j, w := range g.works {
			lad.Apply(joints[j])
			w.val = RScore(joints[j])
		}
	default:
		panic("score: unknown function")
	}
	return nil
}

// Indexes exposes the scorer's parent-configuration index cache so later
// pipeline stages (the noisy-conditional materialization in
// internal/core) can reuse the indexes the final greedy iterations built.
func (s *Scorer) Indexes() *marginal.IndexCache { return s.idx }

// ParentEntropy returns H(Π) for a parent set, computed from the exact
// parent-configuration counts and cached per parent set across children
// and iterations (see marginal.ParentIndex.Entropy).
func (s *Scorer) ParentEntropy(parents []marginal.Var) float64 {
	if _, ok := marginal.ParentConfigs(s.ds, parents); !ok {
		panic("score: parent set too large for configuration indexing")
	}
	return s.idx.Get(s.ds, parents, 1).Entropy()
}
