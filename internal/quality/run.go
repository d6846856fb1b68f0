package quality

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"

	"privbayes"
	"privbayes/internal/dataset"
	"privbayes/internal/marginal"
	"privbayes/internal/workload"
)

// alphas is the marginal-query workload of the gate: all 2-way and
// 3-way marginals, the paper's Qα at α ∈ {2, 3}. Fixed — the pair maps
// one-to-one onto Result.TVD2/TVD3 and the calibrated thresholds.
var alphas = [2]int{2, 3}

// DefaultEps is the gate's privacy-budget sweep.
var DefaultEps = []float64{0.1, 1.0, 10}

// Options configures a quality sweep. The zero value is not usable;
// start from DefaultOptions.
type Options struct {
	// Scenarios to evaluate, in report order.
	Scenarios []Scenario
	// Eps is the privacy-budget sweep.
	Eps []float64
	// TrainRows / TestRows / SynthRows size the source sample, the SVM
	// holdout and the synthetic release.
	TrainRows, TestRows, SynthRows int
	// Parallelism is 2 in DefaultOptions. Output is bit-identical at
	// every value on every machine (the repo's determinism contract);
	// the setting only bounds the worker pools.
	Parallelism int
	// Thresholds gates results per scenario name; nil disables gating.
	Thresholds map[string][]Limits
	// SampleTVD computes the TVD metrics from the empirical marginals of
	// the synthetic sample instead of the exact model marginals (the
	// pre-query-engine behavior). The default (false) answers every
	// workload marginal by exact inference (Model.Query), so the metric
	// measures model fidelity alone, with no sampling error mixed in.
	SampleTVD bool
	// BreakSampler deliberately sabotages the release: the synthetic
	// sample is resampled independently and uniformly per attribute, and
	// the model's conditional tables are flattened to uniform (so the
	// exact-inference TVD path is sabotaged too, not just the sample
	// path). It exists to prove the gate trips: a run with BreakSampler
	// must fail its thresholds.
	BreakSampler bool
}

// DefaultOptions is the calibrated CI configuration. scale >= 1
// multiplies the row counts (the nightly sweep runs larger n); scale
// <= 1 keeps the defaults.
func DefaultOptions(scale int) Options {
	if scale < 1 {
		scale = 1
	}
	return Options{
		Scenarios:   DefaultScenarios(),
		Eps:         DefaultEps,
		TrainRows:   4000 * scale,
		TestRows:    2000 * scale,
		SynthRows:   4000 * scale,
		Parallelism: 2,
		Thresholds:  DefaultThresholds(),
	}
}

// Result is one (scenario, ε) evaluation.
type Result struct {
	Scenario string  `json:"scenario"`
	Epsilon  float64 `json:"epsilon"`
	// TVD2/TVD3 are the mean total-variation distances over all 2-way
	// and 3-way marginals between source and synthetic data.
	TVD2 float64 `json:"tvd_2way"`
	TVD3 float64 `json:"tvd_3way"`
	// SVMError is the misclassification rate of an SVM trained on the
	// synthetic release and tested on a real holdout; SVMRealError is
	// the same SVM trained on the real data — the no-privacy baseline
	// the paper compares against.
	SVMError     float64 `json:"svm_error"`
	SVMRealError float64 `json:"svm_error_real"`
	// Structure scores learned-network edge recovery against the known
	// ground truth.
	Structure Recovery `json:"structure"`
	// Gated reports whether any calibrated Limits row matched this
	// cell's ε — false means the cell passed by omission, not by
	// meeting a threshold. cmd/quality refuses a -check run in which
	// no cell at all was gated.
	Gated bool `json:"gated"`
	// Failures lists threshold violations; empty means the gate passed
	// (or no thresholds were configured for the scenario).
	Failures []string `json:"failures,omitempty"`
}

// Report is the emitted BENCH_quality.json document. It contains no
// timestamps or environment data: for a fixed Options it is
// byte-identical across runs and machines.
type Report struct {
	Schema    string `json:"schema"`
	TrainRows int    `json:"train_rows"`
	TestRows  int    `json:"test_rows"`
	SynthRows int    `json:"synth_rows"`
	// TVDSource records how the TVD metrics were computed: "exact"
	// (model marginals by variable elimination, the default) or
	// "sampled" (empirical marginals of the synthetic sample).
	TVDSource string    `json:"tvd_source"`
	Eps       []float64 `json:"eps"`
	Results   []Result  `json:"results"`
	Pass      bool      `json:"pass"`
}

// seedFor derives a stable per-use seed from labels, so every stage of
// every (scenario, ε) cell draws from its own fixed stream.
func seedFor(labels ...any) int64 {
	h := fnv.New64a()
	for _, l := range labels {
		fmt.Fprintf(h, "%v|", l)
	}
	return int64(h.Sum64())
}

// Run executes the sweep and applies thresholds. It returns an error
// only for infrastructure failures (a fit that errors, a missing task
// attribute); quality regressions are reported via Result.Failures and
// Report.Pass, which the caller (cmd/quality) turns into an exit code.
func Run(ctx context.Context, opt Options) (*Report, error) {
	rep := &Report{
		Schema:    "privbayes-quality/v2",
		TrainRows: opt.TrainRows,
		TestRows:  opt.TestRows,
		SynthRows: opt.SynthRows,
		TVDSource: "exact",
		Eps:       opt.Eps,
		Pass:      true,
	}
	if opt.SampleTVD {
		rep.TVDSource = "sampled"
	}
	for si := range opt.Scenarios {
		sc := &opt.Scenarios[si]
		train, test := sc.Generate(opt.TrainRows, opt.TestRows)
		// Ground-truth marginals depend only on the training sample:
		// build each α's evaluator once and reuse it across the sweep.
		var evals [2]*workload.Evaluator
		for i, alpha := range alphas {
			evals[i] = workload.NewEvaluator(train, alpha, 0, opt.Parallelism, nil)
		}
		// The no-privacy SVM baseline depends only on the scenario's
		// data, not on ε: train it once per scenario so the reported
		// baseline is a single stable number across the sweep.
		realErr, err := SVMError(train, test, sc.Task, seedFor(sc.Name, "svm-real"))
		if err != nil {
			return nil, fmt.Errorf("quality: %s: svm on real: %w", sc.Name, err)
		}
		for _, eps := range opt.Eps {
			res, err := runCell(ctx, sc, train, test, evals, eps, opt)
			if err != nil {
				return nil, fmt.Errorf("quality: %s ε=%g: %w", sc.Name, eps, err)
			}
			res.SVMRealError = realErr
			ls := limitSet(opt.Thresholds[sc.Name])
			res.Gated = ls.covers(eps)
			res.Failures = ls.check(res)
			if len(res.Failures) > 0 {
				rep.Pass = false
			}
			rep.Results = append(rep.Results, res)
		}
	}
	return rep, nil
}

// runCell evaluates one (scenario, ε) cell: fit, synthesize, score.
func runCell(ctx context.Context, sc *Scenario, train, test *dataset.Dataset, evals [2]*workload.Evaluator, eps float64, opt Options) (Result, error) {
	res := Result{Scenario: sc.Name, Epsilon: eps}

	model, err := privbayes.Fit(ctx, train,
		privbayes.WithEpsilon(eps),
		privbayes.WithSeed(seedFor(sc.Name, eps, "fit")),
		privbayes.WithParallelism(opt.Parallelism),
	)
	if err != nil {
		return res, fmt.Errorf("fit: %w", err)
	}
	res.Structure = StructureRecovery(sc.Truth.Edges(), &model.Network)

	synthRng := rand.New(rand.NewSource(seedFor(sc.Name, eps, "synth")))
	synth, err := model.SampleContext(ctx, opt.SynthRows, synthRng, opt.Parallelism, nil)
	if err != nil {
		return res, fmt.Errorf("synthesize: %w", err)
	}
	if opt.BreakSampler {
		synth = uniformResample(synth, seedFor(sc.Name, eps, "sabotage"))
	}

	if opt.SampleTVD {
		res.TVD2 = evals[0].AVDDataset(synth)
		res.TVD3 = evals[1].AVDDataset(synth)
	} else {
		// Exact path: every workload marginal is answered by variable
		// elimination on the released model — no sampling error. Under
		// BreakSampler the queried model is flattened to uniform
		// conditionals, so the sabotaged release fails this path exactly
		// as the resampled dataset fails the sampled one.
		queried := model
		if opt.BreakSampler {
			queried = uniformizeModel(model)
		}
		answer := func(attrs []int) (*marginal.Table, error) {
			names := make([]string, len(attrs))
			for j, a := range attrs {
				names[j] = queried.Attrs[a].Name
			}
			qres, err := queried.Query(ctx, privbayes.Marginal(names...),
				privbayes.QueryParallelism(opt.Parallelism))
			if err != nil {
				return nil, err
			}
			return qres.Table(), nil
		}
		if res.TVD2, err = evals[0].AVDExact(answer); err != nil {
			return res, fmt.Errorf("exact 2-way TVD: %w", err)
		}
		if res.TVD3, err = evals[1].AVDExact(answer); err != nil {
			return res, fmt.Errorf("exact 3-way TVD: %w", err)
		}
	}

	res.SVMError, err = SVMError(synth, test, sc.Task, seedFor(sc.Name, eps, "svm"))
	if err != nil {
		return res, fmt.Errorf("svm on synthetic: %w", err)
	}
	return res, nil
}

// uniformizeModel returns a copy of the model with every conditional
// table flattened to the uniform distribution — the exact-inference
// counterpart of uniformResample: the broken release preserves neither
// correlations nor marginal shapes, so the exact TVD path must trip the
// gate on it just as the sampled path trips on the resampled dataset.
func uniformizeModel(m *privbayes.Model) *privbayes.Model {
	conds := make([]*marginal.Conditional, len(m.Conds))
	for i, c := range m.Conds {
		cc := *c
		cc.P = make([]float64, len(c.P))
		u := 1 / float64(c.XDim)
		for j := range cc.P {
			cc.P[j] = u
		}
		conds[i] = &cc
	}
	mm := *m
	mm.Conds = conds
	return &mm
}

// uniformResample is the deliberately broken sampler: every attribute
// is drawn independently and uniformly over its domain, so the result
// preserves neither correlations nor one-way marginal shapes. Used only
// under Options.BreakSampler to demonstrate the gate trips.
func uniformResample(ds *dataset.Dataset, seed int64) *dataset.Dataset {
	rng := rand.New(rand.NewSource(seed))
	attrs := ds.Attrs()
	out := dataset.NewWithCapacity(attrs, ds.N())
	rec := make([]uint16, len(attrs))
	for r := 0; r < ds.N(); r++ {
		for a := range attrs {
			rec[a] = uint16(rng.Intn(attrs[a].Size()))
		}
		out.Append(rec)
	}
	return out
}
