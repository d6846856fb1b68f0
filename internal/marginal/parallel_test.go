package marginal

import (
	"math"
	"math/rand"
	"testing"

	"privbayes/internal/dataset"
)

func randomData(n, d, domain int, seed int64) *dataset.Dataset {
	attrs := make([]dataset.Attribute, d)
	labels := make([]string, domain)
	for v := range labels {
		labels[v] = string(rune('0' + v))
	}
	for i := range attrs {
		attrs[i] = dataset.NewCategorical(string(rune('a'+i)), labels)
	}
	ds := dataset.New(attrs)
	rng := rand.New(rand.NewSource(seed))
	rec := make([]uint16, d)
	for r := 0; r < n; r++ {
		for c := range rec {
			rec[c] = uint16(rng.Intn(domain))
		}
		ds.Append(rec)
	}
	return ds
}

// TestMaterializeCountsPExact checks the chunked parallel counter is
// bit-identical to the serial one at every parallelism: counts are
// integer-valued, so per-worker accumulation merges exactly.
func TestMaterializeCountsPExact(t *testing.T) {
	ds := randomData(10000, 4, 3, 1)
	vars := []Var{{Attr: 0}, {Attr: 2}, {Attr: 3}}
	want := MaterializeCounts(ds, vars)
	for _, par := range []int{1, 2, 3, 8, 32} {
		got := MaterializeCountsP(ds, vars, par)
		for i := range want.P {
			if got.P[i] != want.P[i] {
				t.Fatalf("parallelism %d: cell %d = %g, want %g", par, i, got.P[i], want.P[i])
			}
		}
	}
}

// TestMaterializePDeterministic checks the normalized parallel
// materialization is bit-identical across worker counts (1 included)
// and within ULP noise of Materialize's float walk.
func TestMaterializePDeterministic(t *testing.T) {
	ds := randomData(9973, 5, 4, 2) // odd n: exercises the 1/n scale
	vars := []Var{{Attr: 1}, {Attr: 4}}
	serial := Materialize(ds, vars)
	base := MaterializeP(ds, vars, 2)
	for _, par := range []int{0, 1, 3, 4, 16} {
		got := MaterializeP(ds, vars, par)
		for i := range base.P {
			if got.P[i] != base.P[i] {
				t.Fatalf("parallelism %d diverges from parallelism 2 at cell %d", par, i)
			}
		}
	}
	for i := range serial.P {
		if math.Abs(serial.P[i]-base.P[i]) > 1e-12 {
			t.Fatalf("parallel cell %d = %g, serial %g", i, base.P[i], serial.P[i])
		}
	}
	if s := base.Sum(); math.Abs(s-1) > 1e-9 {
		t.Fatalf("parallel materialization sums to %g", s)
	}
}

// TestMaterializePSerialPathIsLegacy checks the one-worker path:
// parallelism 1 is exactly MaterializeCounts scaled by 1/n, byte for
// byte, and within ULP noise of Materialize's +1/n float walk.
func TestMaterializePSerialPathIsLegacy(t *testing.T) {
	ds := randomData(5000, 3, 5, 3)
	vars := []Var{{Attr: 0}, {Attr: 1}, {Attr: 2}}
	want := MaterializeCounts(ds, vars)
	want.Scale(1 / float64(ds.N()))
	legacy := Materialize(ds, vars)
	got := MaterializeP(ds, vars, 1)
	for i := range want.P {
		if got.P[i] != want.P[i] {
			t.Fatalf("cell %d = %g, want %g", i, got.P[i], want.P[i])
		}
		if math.Abs(got.P[i]-legacy.P[i]) > 1e-12 {
			t.Fatalf("cell %d = %g, float walk %g", i, got.P[i], legacy.P[i])
		}
	}
}

// TestMaterializePGeneralized checks hierarchy levels survive the
// parallel path.
func TestMaterializePGeneralized(t *testing.T) {
	h := dataset.NewCategorical("city", []string{"a", "b", "c", "d"})
	h.Hierarchy = dataset.NewHierarchy(4, []int{0, 0, 1, 1})
	attrs := []dataset.Attribute{h, dataset.NewCategorical("x", []string{"0", "1"})}
	ds := dataset.New(attrs)
	rng := rand.New(rand.NewSource(7))
	rec := make([]uint16, 2)
	for r := 0; r < 6000; r++ {
		rec[0], rec[1] = uint16(rng.Intn(4)), uint16(rng.Intn(2))
		ds.Append(rec)
	}
	vars := []Var{{Attr: 0, Level: 1}, {Attr: 1}}
	want := MaterializeCounts(ds, vars)
	got := MaterializeCountsP(ds, vars, 4)
	for i := range want.P {
		if got.P[i] != want.P[i] {
			t.Fatalf("cell %d = %g, want %g", i, got.P[i], want.P[i])
		}
	}
}
