package core

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"privbayes/internal/marginal"
	"privbayes/internal/score"
)

func TestModelJSONRoundTrip(t *testing.T) {
	ds := mixedData(3000, 31)
	rng := rand.New(rand.NewSource(32))
	m, err := Fit(context.Background(), ds, Options{
		Epsilon: 0.5, Beta: 0.3, Theta: 4,
		Mode: ModeGeneral, Score: score.R, UseHierarchy: true, Rand: rng,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.WriteJSON(&buf, 0.5); err != nil {
		t.Fatal(err)
	}
	back, eps, err := ReadModelJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if eps != 0.5 {
		t.Errorf("epsilon metadata = %v", eps)
	}
	// The reloaded model must sample the identical stream given the
	// same RNG state.
	a := m.SampleP(500, rand.New(rand.NewSource(7)), 0)
	b := back.SampleP(500, rand.New(rand.NewSource(7)), 0)
	for r := 0; r < a.N(); r++ {
		for c := 0; c < a.D(); c++ {
			if a.Value(r, c) != b.Value(r, c) {
				t.Fatalf("reloaded model diverges at (%d,%d)", r, c)
			}
		}
	}
	// Hierarchies must survive (needed for generalized parents).
	if back.Attrs[1].Hierarchy == nil {
		t.Error("hierarchy lost in round trip")
	}
	if back.Attrs[1].SizeAt(1) != m.Attrs[1].SizeAt(1) {
		t.Error("hierarchy level sizes changed")
	}
}

func TestReadModelJSONRejectsGarbage(t *testing.T) {
	for name, doc := range map[string]string{
		"truncated JSON":  "{",
		"unknown version": `{"version":99,"model":null}`,
		"null model":      `{"version":1,"model":null}`,
		"missing version": `{"model":{}}`,
		"empty document":  `{}`,
		"non-object":      `[1,2,3]`,
	} {
		_, _, err := ReadModelJSON(strings.NewReader(doc))
		if err == nil {
			t.Errorf("%s must error", name)
			continue
		}
		if !errors.Is(err, ErrInvalidModel) {
			t.Errorf("%s: error %v does not wrap ErrInvalidModel", name, err)
		}
	}
}

// validArtifactOnce caches the marshaled fixture: the fit is
// deterministic (seed 42), so every corruption case can re-decode the
// same bytes instead of paying a fresh Fit.
var validArtifactOnce struct {
	sync.Once
	raw []byte
	err error
}

// validArtifact fits a small hierarchical model (once) and returns its
// JSON document decoded into a fresh generic tree, ready for targeted
// corruption.
func validArtifact(t *testing.T) map[string]any {
	t.Helper()
	validArtifactOnce.Do(func() {
		ds := mixedData(800, 41)
		m, err := Fit(context.Background(), ds, Options{
			Epsilon: 1, Beta: 0.3, Theta: 4,
			Mode: ModeGeneral, Score: score.R, UseHierarchy: true,
			Rand: rand.New(rand.NewSource(42)),
		})
		if err != nil {
			validArtifactOnce.err = err
			return
		}
		var buf bytes.Buffer
		if err := m.WriteJSON(&buf, 1); err != nil {
			validArtifactOnce.err = err
			return
		}
		validArtifactOnce.raw = buf.Bytes()
	})
	if validArtifactOnce.err != nil {
		t.Fatal(validArtifactOnce.err)
	}
	var doc map[string]any
	if err := json.Unmarshal(validArtifactOnce.raw, &doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

// TestReadModelJSONRejectsMalformed corrupts a valid artifact one field
// at a time, the way a buggy or adversarial uploader would, and requires
// a typed rejection — never a panic — for each.
func TestReadModelJSONRejectsMalformed(t *testing.T) {
	model := func(doc map[string]any) map[string]any { return doc["model"].(map[string]any) }
	conds := func(doc map[string]any) []any { return model(doc)["Conds"].([]any) }
	cond0 := func(doc map[string]any) map[string]any { return conds(doc)[0].(map[string]any) }
	attrs := func(doc map[string]any) []any { return model(doc)["Attrs"].([]any) }
	attr0 := func(doc map[string]any) map[string]any { return attrs(doc)[0].(map[string]any) }
	pairs := func(doc map[string]any) []any {
		return model(doc)["Network"].(map[string]any)["Pairs"].([]any)
	}

	cases := []struct {
		name    string
		corrupt func(doc map[string]any)
	}{
		{"no attributes", func(doc map[string]any) { model(doc)["Attrs"] = []any{} }},
		{"empty attribute name", func(doc map[string]any) { attr0(doc)["Name"] = "" }},
		{"unknown attribute kind", func(doc map[string]any) { attr0(doc)["Kind"] = 7 }},
		{"empty attribute domain", func(doc map[string]any) { attr0(doc)["Labels"] = []any{} }},
		{"inverted continuous range", func(doc map[string]any) {
			for _, a := range attrs(doc) {
				if a.(map[string]any)["Kind"].(float64) == 1 {
					a.(map[string]any)["Min"] = 10.0
					a.(map[string]any)["Max"] = -10.0
				}
			}
		}},
		{"degree out of range", func(doc map[string]any) { model(doc)["K"] = 99 }},
		{"unknown score function", func(doc map[string]any) { model(doc)["Score"] = 42 }},
		{"child attr out of range", func(doc map[string]any) {
			pairs(doc)[0].(map[string]any)["X"] = map[string]any{"Attr": 99, "Level": 0}
		}},
		{"negative parent attr", func(doc map[string]any) {
			pairs(doc)[1].(map[string]any)["Parents"] = []any{map[string]any{"Attr": -1, "Level": 0}}
		}},
		{"parent level too deep", func(doc map[string]any) {
			pairs(doc)[1].(map[string]any)["Parents"] = []any{map[string]any{"Attr": 0, "Level": 30}}
		}},
		{"duplicate child", func(doc map[string]any) {
			p := pairs(doc)
			p[1].(map[string]any)["X"] = p[0].(map[string]any)["X"]
		}},
		{"missing pair", func(doc map[string]any) {
			net := model(doc)["Network"].(map[string]any)
			net["Pairs"] = pairs(doc)[:len(pairs(doc))-1]
		}},
		{"missing conditional", func(doc map[string]any) { model(doc)["Conds"] = conds(doc)[:1] }},
		{"null conditional", func(doc map[string]any) { conds(doc)[0] = nil }},
		{"conditional child mismatch", func(doc map[string]any) {
			child := pairs(doc)[0].(map[string]any)["X"].(map[string]any)
			other := (int(child["Attr"].(float64)) + 1) % len(attrs(doc))
			cond0(doc)["X"] = map[string]any{"Attr": other, "Level": 0}
		}},
		{"wrong XDim", func(doc map[string]any) { cond0(doc)["XDim"] = 3 }},
		{"truncated probability vector", func(doc map[string]any) {
			p := cond0(doc)["P"].([]any)
			cond0(doc)["P"] = p[:len(p)-1]
		}},
		{"negative probability", func(doc map[string]any) {
			p := cond0(doc)["P"].([]any)
			p[0] = -0.25
		}},
		{"block does not sum to 1", func(doc map[string]any) {
			p := cond0(doc)["P"].([]any)
			p[0] = p[0].(float64) + 0.5
		}},
		{"oversized parent dim", func(doc map[string]any) {
			// Find a conditional with parents and inflate its PDims.
			for _, c := range conds(doc) {
				cm := c.(map[string]any)
				if dims, ok := cm["PDims"].([]any); ok && len(dims) > 0 {
					dims[0] = 1 << 20
					return
				}
			}
			t.Skip("no conditional with parents in this fit")
		}},
		{"hierarchy raw size mismatch", func(doc map[string]any) {
			for _, a := range attrs(doc) {
				am := a.(map[string]any)
				if h, ok := am["Hierarchy"].(map[string]any); ok && h != nil {
					h["raw_size"] = 3
					maps := h["maps"].([]any)
					for i := range maps {
						maps[i] = []any{0, 0, 1}
					}
					return
				}
			}
			t.Skip("no hierarchy in this fit")
		}},
		{"hierarchy raw size huge", func(doc map[string]any) {
			for _, a := range attrs(doc) {
				am := a.(map[string]any)
				if h, ok := am["Hierarchy"].(map[string]any); ok && h != nil {
					h["raw_size"] = 1 << 40
					return
				}
			}
			t.Skip("no hierarchy in this fit")
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			doc := validArtifact(t)
			tc.corrupt(doc)
			raw, err := json.Marshal(doc)
			if err != nil {
				t.Fatal(err)
			}
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("ReadModelJSON panicked: %v", r)
				}
			}()
			_, _, err = ReadModelJSON(bytes.NewReader(raw))
			if err == nil {
				t.Fatal("corrupted artifact must be rejected")
			}
			if !errors.Is(err, ErrInvalidModel) && !strings.Contains(err.Error(), "hierarchy") {
				t.Errorf("error %v does not wrap ErrInvalidModel", err)
			}
		})
	}
}

// TestReadModelJSONTruncationsNeverPanic feeds every prefix (sampled)
// of a valid artifact to the loader: each must error or load cleanly,
// never panic — the minimal fuzz contract for a network-facing parser.
func TestReadModelJSONTruncationsNeverPanic(t *testing.T) {
	doc := validArtifact(t)
	raw, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	step := len(raw)/97 + 1
	for cut := 0; cut < len(raw); cut += step {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic at prefix length %d: %v", cut, r)
				}
			}()
			if _, _, err := ReadModelJSON(bytes.NewReader(raw[:cut])); err == nil {
				t.Errorf("truncation at %d of %d accepted", cut, len(raw))
			}
		}()
	}
}

func TestReadModelJSONValidatesStructure(t *testing.T) {
	ds := chainData(500, 33)
	rng := rand.New(rand.NewSource(34))
	m, err := Fit(context.Background(), ds, Options{
		Epsilon: 1, Beta: 0.3, Theta: 4, K: 1,
		Mode: ModeBinary, Score: score.F, Rand: rng,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt a conditional's child.
	m.Conds[1] = &marginal.Conditional{X: marginal.Var{Attr: 99}, XDim: 2, P: []float64{1, 0}}
	var buf bytes.Buffer
	if err := m.WriteJSON(&buf, 1); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadModelJSON(&buf); err == nil {
		t.Error("mismatched conditional must be rejected on load")
	}
}
