package core

import (
	"context"
	"errors"
	"math/rand"
	"testing"
)

// TestSampleContextMatchesSampleP: for an uncancelled context,
// SampleContext is byte-identical to SampleP at every parallelism.
func TestSampleContextMatchesSampleP(t *testing.T) {
	ds := chainData(3000, 1)
	m, err := Fit(context.Background(), ds, DefaultOptions(1, rand.New(rand.NewSource(2))))
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{1, 2, 4} {
		for _, n := range []int{0, 1, 2047, 2048, 5000} {
			want := m.SampleP(n, rand.New(rand.NewSource(3)), par)
			got, err := m.SampleContext(context.Background(), n, rand.New(rand.NewSource(3)), par, nil)
			if err != nil {
				t.Fatalf("par=%d n=%d: %v", par, n, err)
			}
			for c := 0; c < want.D(); c++ {
				for r := 0; r < n; r++ {
					if want.Value(r, c) != got.Value(r, c) {
						t.Fatalf("par=%d n=%d: cell (%d,%d) differs", par, n, r, c)
					}
				}
			}
		}
	}
}

// TestSampleContextCancelled: a cancelled context aborts sampling with
// context.Canceled and no partial dataset.
func TestSampleContextCancelled(t *testing.T) {
	ds := chainData(2000, 4)
	m, err := Fit(context.Background(), ds, DefaultOptions(1, rand.New(rand.NewSource(5))))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, par := range []int{1, 3} {
		out, err := m.SampleContext(ctx, 100_000, rand.New(rand.NewSource(6)), par, nil)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("par=%d: err = %v, want context.Canceled", par, err)
		}
		if out != nil {
			t.Fatalf("par=%d: partial dataset returned", par)
		}
	}
}

// TestFitContextCancelled: Fit on a cancelled context returns
// context.Canceled in both pipeline modes, never a partial model.
func TestFitContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, mode := range []Mode{ModeBinary, ModeGeneral} {
		ds := chainData(1500, 7)
		opt := DefaultOptions(1, rand.New(rand.NewSource(8)))
		opt.Mode = mode
		if mode == ModeBinary {
			opt.Score, opt.K = 1, 2 // score.F
		}
		m, err := Fit(ctx, ds, opt)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("mode %d: err = %v, want context.Canceled", mode, err)
		}
		if m != nil {
			t.Fatalf("mode %d: partial model returned", mode)
		}
	}
}

// TestFitContextProgressPhases: the progress sink reports both fitting
// phases, with monotone Done counts reaching Total.
func TestFitContextProgressPhases(t *testing.T) {
	ds := mixedData(2500, 9)
	opt := DefaultOptions(1, rand.New(rand.NewSource(10)))
	last := map[Phase]ProgressEvent{}
	opt.Progress = func(e ProgressEvent) {
		if prev, ok := last[e.Phase]; ok && e.Done < prev.Done {
			t.Fatalf("phase %v: Done regressed %d -> %d", e.Phase, prev.Done, e.Done)
		}
		last[e.Phase] = e
	}
	if _, err := Fit(context.Background(), ds, opt); err != nil {
		t.Fatal(err)
	}
	for _, ph := range []Phase{PhaseNetwork, PhaseMarginals} {
		e, ok := last[ph]
		if !ok {
			t.Fatalf("phase %v never reported", ph)
		}
		if e.Done != e.Total || e.Total == 0 {
			t.Fatalf("phase %v ended at %d/%d", ph, e.Done, e.Total)
		}
	}
}
