package core

import (
	"context"
	"math/rand"
	"testing"

	"privbayes/internal/dataset"
	"privbayes/internal/score"
)

// Degenerate shapes: single attribute, two attributes, k = d-1.
func TestFitDegenerateShapes(t *testing.T) {
	one := dataset.New([]dataset.Attribute{dataset.NewCategorical("a", []string{"0", "1"})})
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		one.Append([]uint16{uint16(rng.Intn(2))})
	}
	m, err := Fit(context.Background(), one, Options{Epsilon: 1, Beta: 0.3, Theta: 4, K: -1, Mode: ModeBinary, Score: score.F, Rand: rng})
	if err != nil {
		t.Fatalf("d=1: %v", err)
	}
	if syn := m.SampleP(10, rng, 0); syn.N() != 10 {
		t.Fatal("d=1 sampling failed")
	}

	two := chainData(200, 2)
	sub := two.Subset([]int{0, 1, 2, 3, 4})
	m2, err := Fit(context.Background(), sub, Options{Epsilon: 1, Beta: 0.3, Theta: 4, K: 5, Mode: ModeBinary, Score: score.F, Rand: rng})
	if err != nil {
		t.Fatalf("k > d-1 should clamp: %v", err)
	}
	if m2.K != sub.D()-1 {
		t.Errorf("k clamped to %d, want %d", m2.K, sub.D()-1)
	}
}
