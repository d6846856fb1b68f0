package privbayes

import (
	"bytes"
	"context"
	"testing"
)

// modelBytes serializes a model for byte-for-byte comparison.
func modelBytes(t *testing.T, m *Model) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := SaveModel(&buf, m, 1); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// datasetsEqual compares two datasets cell by cell.
func datasetsEqual(a, b *Dataset) bool {
	if a.N() != b.N() || a.D() != b.D() {
		return false
	}
	for c := 0; c < a.D(); c++ {
		for r := 0; r < a.N(); r++ {
			if a.Value(r, c) != b.Value(r, c) {
				return false
			}
		}
	}
	return true
}

// TestSynthesizeIdenticalAcrossParallelism: the facade's one-call
// release is a function of (data, options, seed) only — the same
// synthetic dataset at every parallelism, 1 included.
func TestSynthesizeIdenticalAcrossParallelism(t *testing.T) {
	ds := toyData(5000, 80)
	synth := func(par int) *Dataset {
		out, err := Synthesize(context.Background(), ds,
			WithEpsilon(1), WithParallelism(par), WithSeed(81))
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	want := synth(2)
	for _, par := range []int{0, 1, 3} {
		if !datasetsEqual(synth(par), want) {
			t.Errorf("parallelism %d: synthetic dataset differs from parallelism 2", par)
		}
	}
}
