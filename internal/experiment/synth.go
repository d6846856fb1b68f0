package experiment

import (
	"context"

	"fmt"
	"math/rand"
	"sync"

	"privbayes/internal/core"
	"privbayes/internal/dataset"
	"privbayes/internal/encoding"
	"privbayes/internal/score"
)

// codecCache reuses the binarized view of a dataset across runs: the
// encoding is deterministic, and re-encoding 45k rows for every
// (ε, repeat) pair would dominate the harness.
var (
	encMu    sync.Mutex
	encCache = map[string]encodedView{}
)

type encodedView struct {
	codec *encoding.Codec
	ds    *dataset.Dataset
}

func encodedData(kind encoding.Kind, dsKey string, ds *dataset.Dataset) encodedView {
	key := fmt.Sprintf("%v|%s", kind, dsKey)
	encMu.Lock()
	defer encMu.Unlock()
	if v, ok := encCache[key]; ok {
		return v
	}
	codec := encoding.NewCodec(kind, ds.Attrs())
	v := encodedView{codec: codec, ds: codec.Encode(ds)}
	encCache[key] = v
	return v
}

// synthesizeEncoded runs the full PrivBayes pipeline under the given
// encoding (Section 5.1) and returns a synthetic dataset over the
// ORIGINAL schema: Binary and Gray model the bit-decomposed data with
// score F and decode the output; Vanilla and Hierarchical model the raw
// domains with score R, the latter exposing taxonomy-tree levels to
// parent-set selection.
func synthesizeEncoded(kind encoding.Kind, dsKey string, ds *dataset.Dataset, eps float64, cfg Config, scorers *scorerCache, rng *rand.Rand) (*dataset.Dataset, error) {
	switch kind {
	case encoding.Binary, encoding.Gray:
		view := encodedData(kind, dsKey, ds)
		encKey := fmt.Sprintf("%v|%s", kind, dsKey)
		opt := core.Options{
			Epsilon: eps, Beta: 0.3, Theta: 4, K: -1, MaxK: cfg.MaxK,
			Mode: core.ModeBinary, Score: score.F,
			Parallelism: cfg.Parallelism, Rand: rng,
			Scorer: scorers.get(score.F, encKey, view.ds),
		}
		m, err := core.Fit(context.Background(), view.ds, opt)
		if err != nil {
			return nil, err
		}
		return view.codec.Decode(m.SampleP(ds.N(), rng, cfg.Parallelism)), nil
	case encoding.Vanilla, encoding.Hierarchical:
		opt := core.Options{
			Epsilon: eps, Beta: 0.3, Theta: 4, MaxK: cfg.MaxK,
			Mode: core.ModeGeneral, Score: score.R,
			Parallelism: cfg.Parallelism, Rand: rng,
			UseHierarchy: kind == encoding.Hierarchical,
			Scorer:       scorers.get(score.R, dsKey, ds),
		}
		m, err := core.Fit(context.Background(), ds, opt)
		if err != nil {
			return nil, err
		}
		return m.SampleP(ds.N(), rng, cfg.Parallelism), nil
	default:
		return nil, fmt.Errorf("experiment: unknown encoding %v", kind)
	}
}

// encodingSeries pairs the paper's series names with encodings: the
// score function is determined by the encoding (F needs binary domains,
// R handles general ones).
var encodingSeries = []struct {
	name string
	kind encoding.Kind
}{
	{"Binary-F", encoding.Binary},
	{"Gray-F", encoding.Gray},
	{"Vanilla-R", encoding.Vanilla},
	{"Hierarchical-R", encoding.Hierarchical},
}
