package core

import (
	"bytes"
	"context"
	"math/rand"
	"strings"
	"testing"

	"privbayes/internal/dataset"
	"privbayes/internal/score"
)

// fuzzModelArtifact builds one small valid SaveModel document to anchor
// the seed corpus.
func fuzzModelArtifact(tb testing.TB) []byte {
	tb.Helper()
	attrs := []dataset.Attribute{
		dataset.NewCategorical("a", []string{"x", "y"}),
		dataset.NewCategorical("b", []string{"x", "y", "z"}),
		dataset.NewContinuous("c", 0, 10, 4),
	}
	rng := rand.New(rand.NewSource(3))
	ds := dataset.NewWithCapacity(attrs, 400)
	rec := make([]uint16, 3)
	for i := 0; i < 400; i++ {
		rec[0] = uint16(rng.Intn(2))
		rec[1] = uint16((int(rec[0]) + rng.Intn(2)) % 3)
		rec[2] = uint16(rng.Intn(4))
		ds.Append(rec)
	}
	opt := DefaultOptions(1.0, rng)
	opt.Score = score.R
	m, err := Fit(context.Background(), ds, opt)
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.WriteJSON(&buf, 1.0); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzReadModelJSON hammers the untrusted-artifact loader (the path
// behind privbayes.LoadModel and privbayesd's POST /models): any input
// must either be rejected with an error wrapping ErrInvalidModel-style
// validation, or produce a model that is internally consistent enough
// to re-validate, re-serialize and sample — and must never panic.
func FuzzReadModelJSON(f *testing.F) {
	valid := fuzzModelArtifact(f)
	f.Add(valid)
	// Crafted corruptions of the valid artifact: truncations, version
	// games, structural damage, dimension lies, and hostile sizes.
	for cut := 1; cut < len(valid); cut += len(valid) / 7 {
		f.Add(valid[:cut])
	}
	s := string(valid)
	f.Add([]byte(strings.Replace(s, `"version":1`, `"version":2`, 1)))
	f.Add([]byte(strings.Replace(s, `"version":1`, `"epsilon":0`, 1)))
	f.Add([]byte(strings.Replace(s, `"Attrs"`, `"Nope"`, 1)))
	f.Add([]byte(strings.ReplaceAll(s, `"P":[`, `"P":[1e308,`)))
	f.Add([]byte(strings.ReplaceAll(s, `"Dims":[`, `"Dims":[65999,`)))
	f.Add([]byte(strings.Replace(s, `"K":`, `"K":99,"old":`, 1)))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"version":1}`))
	f.Add([]byte(`{"version":1,"model":{}}`))
	f.Add([]byte(`{"version":1,"model":{"Attrs":[{"Name":"a","Kind":0,"Labels":["x","y"]}],"Network":{"Pairs":[{"X":{"Attr":0}}]},"Conds":[],"K":-1}}`))
	f.Add([]byte(`null`))
	f.Add([]byte(``))

	f.Fuzz(func(t *testing.T, data []byte) {
		m, _, err := ReadModelJSON(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Accepted models must uphold every invariant the sampler and
		// re-serialization rely on.
		if err := m.Validate(); err != nil {
			t.Fatalf("accepted model fails Validate: %v", err)
		}
		var buf bytes.Buffer
		if err := m.WriteJSON(&buf, 0); err != nil {
			t.Fatalf("accepted model fails to re-serialize: %v", err)
		}
		if _, _, err := ReadModelJSON(&buf); err != nil {
			t.Fatalf("round-tripped model rejected: %v", err)
		}
		// Sampling must not panic on any accepted model; keep it cheap
		// by skipping pathologically wide ones.
		if len(m.Attrs) <= 64 {
			m.SampleP(16, rand.New(rand.NewSource(1)), 0)
		}
	})
}
