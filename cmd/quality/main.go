// Command quality runs the statistical quality sweep (internal/quality)
// and emits BENCH_quality.json: for every ground-truth scenario and
// every ε in the sweep it reports 2-way/3-way marginal TVD, SVM
// misclassification on a real holdout, and structure recovery against
// the known generative network, then gates the results on calibrated
// per-scenario thresholds.
//
// TVD metrics are computed by exact inference on the released model
// (Model.Query), so they measure model fidelity with no sampling error;
// -sample-tvd restores the empirical-marginal path over the synthetic
// sample.
//
// The sweep is seeded end to end and runs at pinned parallelism, so for
// fixed flags the emitted document is byte-identical across runs and
// machines — CI verifies this by running it twice and comparing.
// -check=false reports without gating. -sabotage deliberately breaks
// the sampler to prove the gate trips.
//
// Exit codes: 0 = gate passed, 1 = threshold violated (the quality
// regression gate), 2 = infrastructure or usage failure — so callers
// (CI's gate self-test) can tell a genuine gate trip from a broken run.
//
// Usage:
//
//	quality [-out BENCH_quality.json] [-scale 1] [-eps 0.1,1,10]
//	        [-check] [-sabotage] [-sample-tvd] [-parallelism 2]
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"privbayes/internal/cliutil"
	"privbayes/internal/quality"
)

func main() {
	var (
		out       = flag.String("out", "", "write the JSON report to this file ('' = stdout)")
		scale     = flag.Int("scale", 1, "row-count multiplier (nightly runs use larger values)")
		epsFlag   = flag.String("eps", "", "comma-separated ε sweep override (default 0.1,1,10)")
		check     = flag.Bool("check", true, "exit 1 when any calibrated threshold is violated")
		sabotage  = flag.Bool("sabotage", false, "deliberately break the release (gate self-test; must fail)")
		par       = flag.Int("parallelism", 2, "worker bound; output is bit-identical at every value, across machines")
		sampleTVD = flag.Bool("sample-tvd", false, "compute TVD from the synthetic sample's empirical marginals instead of exact model inference")
	)
	cliutil.Parse("quality", "statistical quality sweep and regression gate over ground-truth scenarios")

	opt := quality.DefaultOptions(*scale)
	opt.Parallelism = *par
	opt.BreakSampler = *sabotage
	opt.SampleTVD = *sampleTVD
	if *epsFlag != "" {
		eps, err := parseEps(*epsFlag)
		if err != nil {
			fmt.Fprintln(os.Stderr, "quality:", err)
			os.Exit(2)
		}
		opt.Eps = eps
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	rep, err := quality.Run(ctx, opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "quality:", err)
		os.Exit(2) // infrastructure failure, distinct from a gate trip
	}

	var buf strings.Builder
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, "quality:", err)
		os.Exit(2)
	}
	if *out == "" {
		fmt.Print(buf.String())
	} else if err := os.WriteFile(*out, []byte(buf.String()), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "quality:", err)
		os.Exit(2)
	}

	for _, r := range rep.Results {
		status := "ok"
		if len(r.Failures) > 0 {
			status = "FAIL: " + strings.Join(r.Failures, "; ")
		}
		fmt.Fprintf(os.Stderr,
			"%-14s ε=%-5g tvd2=%.4f tvd3=%.4f svm=%.4f (real %.4f) edgeF1=%.2f  %s\n",
			r.Scenario, r.Epsilon, r.TVD2, r.TVD3, r.SVMError, r.SVMRealError, r.Structure.F1, status)
	}
	if *check {
		gated := 0
		for _, r := range rep.Results {
			if r.Gated {
				gated++
			}
		}
		if gated == 0 {
			// Every cell passed by omission (e.g. a custom -eps with no
			// calibrated row): that is a broken gate invocation, not a
			// pass.
			fmt.Fprintln(os.Stderr, "quality: -check is on but no calibrated threshold matched any (scenario, ε) cell; use -check=false for ungated sweeps")
			os.Exit(2)
		}
		if !rep.Pass {
			fmt.Fprintln(os.Stderr, "quality: gate FAILED — synthetic-data fidelity regressed past calibrated thresholds")
			os.Exit(1)
		}
	}
}

func parseEps(s string) ([]float64, error) {
	parts := strings.Split(s, ",")
	eps := make([]float64, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("invalid ε %q in -eps", p)
		}
		eps = append(eps, v)
	}
	return eps, nil
}
