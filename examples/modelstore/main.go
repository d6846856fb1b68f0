// Modelstore: fit once, persist the private model, reload it later and
// answer queries two ways — by resampling synthetic data and by exact
// inference on the model (the Section 7 extension). Demonstrates that
// the stored artifact is the ε-DP release itself: no sensitive data is
// ever written.
package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"

	"privbayes"
	"privbayes/internal/data"
	"privbayes/internal/marginal"
	"privbayes/internal/workload"
)

func main() {
	spec, _ := data.ByName("BR2000")
	ds := spec.GenerateN(15_000)
	rng := rand.New(rand.NewSource(17))

	const eps = 0.8
	model, err := privbayes.Fit(context.Background(), ds,
		privbayes.WithEpsilon(eps), privbayes.WithSeed(17))
	if err != nil {
		panic(err)
	}

	// Persist and reload — in a real deployment this buffer is a file
	// handed to the analyst; the curator's job ends here.
	var store bytes.Buffer
	if err := privbayes.SaveModel(&store, model, eps); err != nil {
		panic(err)
	}
	fmt.Printf("stored model: %d bytes of JSON (the ε = %g release itself)\n\n", store.Len(), eps)

	reloaded, storedEps, err := privbayes.LoadModel(&store)
	if err != nil {
		panic(err)
	}
	fmt.Printf("reloaded model fitted under ε = %g\n", storedEps)

	// Answer a 2-way marginal three ways.
	gender := ds.AttrIndex("gender")
	car := ds.AttrIndex("car")
	vars := []marginal.Var{{Attr: gender}, {Attr: car}}
	truth := marginal.Materialize(ds, vars)

	syn := reloaded.SampleP(ds.N(), rng, 0)
	sampled := marginal.Materialize(syn, vars)

	res, err := reloaded.Query(context.Background(), privbayes.Marginal("gender", "car"))
	if err != nil {
		panic(err)
	}
	inferred := res.Table()

	fmt.Printf("\nPr[gender, car]            sensitive   sampled   inferred\n")
	labels := []string{"F/no", "F/yes", "M/no", "M/yes"}
	for i, l := range labels {
		fmt.Printf("  %-22s %9.4f %9.4f %10.4f\n", l, truth.P[i], sampled.P[i], inferred.P[i])
	}
	fmt.Printf("\nTVD to sensitive data:  sampled %.4f, inferred %.4f\n",
		marginal.TVD(truth, sampled), marginal.TVD(truth, inferred))

	// Linear queries on the resampled release.
	queries := workload.NewLinearQueries(ds, 100, 3, rng)
	fmt.Printf("avg |error| over 100 random 3-attribute linear queries: %.4f\n",
		workload.AvgLinearQueryError(ds, syn, queries))
	fmt.Println("\nInference answers low-dimensional queries without sampling error;")
	fmt.Println("the stored model can be resampled for anything else.")
}
