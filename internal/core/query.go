package core

import (
	"context"
	"errors"
	"fmt"
	"strconv"

	"privbayes/internal/dataset"
	"privbayes/internal/infer"
	"privbayes/internal/marginal"
)

// The v2 query API: arbitrary conjunctive count/marginal/conditional
// queries answered exactly from a fitted model's conditional tables by
// variable elimination (internal/infer), never by sampling. Queries are
// small AST values built with Marginal, Conditional, Prob and Count;
// predicates select attribute values by equality (Eq) or set
// membership (In); marginal axes roll up through taxonomy hierarchies
// with AtLevel. Answers carry no sampling error and touch no raw data,
// so querying a model costs no privacy budget.

// QueryKind discriminates the query AST.
type QueryKind int

const (
	// QueryMarginal asks for the joint distribution of the target
	// attributes: P(targets...).
	QueryMarginal QueryKind = iota
	// QueryConditional asks for the distribution of the targets given
	// the evidence predicates: P(targets... | where...).
	QueryConditional
	// QueryProb asks for the scalar probability of the conjunction of
	// the predicates: P(where...).
	QueryProb
	// QueryCount asks for the expected number of rows matching the
	// predicates among N synthetic rows: N · P(where...).
	QueryCount
)

// String names the kind as used on the privbayesd wire.
func (k QueryKind) String() string {
	switch k {
	case QueryMarginal:
		return "marginal"
	case QueryConditional:
		return "conditional"
	case QueryProb:
		return "prob"
	case QueryCount:
		return "count"
	default:
		return fmt.Sprintf("QueryKind(%d)", int(k))
	}
}

// AttrRef names one target axis of a query, optionally rolled up to a
// taxonomy level > 0 (level 0 is the raw domain).
type AttrRef struct {
	Name  string `json:"name"`
	Level int    `json:"level,omitempty"`
}

// Predicate constrains one attribute to a set of values: one value is
// an equality test, several are set membership. Values are written as
// the attribute's labels; continuous attributes additionally accept a
// plain number, which selects the bin containing it.
type Predicate struct {
	Attr   string   `json:"attr"`
	Values []string `json:"values"`
}

// Eq builds an equality predicate attr = value.
func Eq(attr, value string) Predicate {
	return Predicate{Attr: attr, Values: []string{value}}
}

// In builds a set-membership predicate attr ∈ {values...}.
func In(attr string, values ...string) Predicate {
	return Predicate{Attr: attr, Values: values}
}

// Query is one exact inference request against a fitted model. Build it
// with the constructors (Marginal, Conditional, Prob, Count) and refine
// it with AtLevel / Given; the zero value is not a valid query.
type Query struct {
	Kind  QueryKind   `json:"kind"`
	Attrs []AttrRef   `json:"attrs,omitempty"`
	Where []Predicate `json:"where,omitempty"`
	// N scales a QueryCount answer: the expected count among N rows.
	N int `json:"n,omitempty"`
}

// Marginal builds a marginal query over the named attributes, in result
// order: P(attrs...).
func Marginal(attrs ...string) Query {
	q := Query{Kind: QueryMarginal, Attrs: make([]AttrRef, len(attrs))}
	for i, a := range attrs {
		q.Attrs[i] = AttrRef{Name: a}
	}
	return q
}

// Conditional builds a conditional query: the distribution of targets
// given the evidence predicates, P(targets... | given...).
func Conditional(targets []string, given ...Predicate) Query {
	q := Marginal(targets...)
	q.Kind = QueryConditional
	q.Where = given
	return q
}

// Prob builds a scalar probability query P(where...).
func Prob(where ...Predicate) Query {
	return Query{Kind: QueryProb, Where: where}
}

// Count builds an expected-count query: the number of rows matching the
// predicates among n synthetic rows, n · P(where...).
func Count(n int, where ...Predicate) Query {
	return Query{Kind: QueryCount, Where: where, N: n}
}

// AtLevel returns a copy of the query with the named target attribute
// rolled up to the given taxonomy level. Unknown names are caught at
// execution time.
func (q Query) AtLevel(attr string, level int) Query {
	attrs := append([]AttrRef(nil), q.Attrs...)
	for i := range attrs {
		if attrs[i].Name == attr {
			attrs[i].Level = level
		}
	}
	q.Attrs = attrs
	return q
}

// Given returns a copy of the query conditioned on additional evidence
// predicates; a marginal query becomes a conditional one.
func (q Query) Given(preds ...Predicate) Query {
	q.Where = append(append([]Predicate(nil), q.Where...), preds...)
	if q.Kind == QueryMarginal {
		q.Kind = QueryConditional
	}
	return q
}

// QueryResult is the answer to a Query. Table-valued queries (marginal,
// conditional) fill Attrs/Levels/Dims/P — a dense distribution in
// row-major order with the last attribute varying fastest, exactly the
// layout of marginal.Table. Scalar queries (prob, count) fill Value and
// leave the table fields empty.
type QueryResult struct {
	Kind   string    `json:"kind"`
	Attrs  []string  `json:"attrs,omitempty"`
	Levels []int     `json:"levels,omitempty"`
	Dims   []int     `json:"dims,omitempty"`
	P      []float64 `json:"p,omitempty"`
	Value  float64   `json:"value,omitempty"`
}

// Table re-materializes a table-valued result as a marginal.Table (nil
// for scalar results). The queried attribute indices are not
// recoverable from names alone, so each Var's Attr is the axis
// position, not the schema index.
func (r *QueryResult) Table() *marginal.Table {
	if len(r.Dims) == 0 {
		return nil
	}
	vars := make([]marginal.Var, len(r.Dims))
	for i := range vars {
		vars[i] = marginal.Var{Attr: i, Level: r.Levels[i]}
	}
	return &marginal.Table{Vars: vars, Dims: append([]int(nil), r.Dims...), P: append([]float64(nil), r.P...)}
}

// ErrImpossibleEvidence reports a conditional query whose evidence has
// zero probability under the model: the conditional distribution is
// undefined.
var ErrImpossibleEvidence = errors.New("evidence has probability zero under the model")

// queryConfig is the resolved option set of one Query call.
type queryConfig struct {
	maxCells    int
	parallelism int
	stats       *infer.Stats
}

// QueryOption configures Model.Query, in the functional-option style of
// the v2 API.
type QueryOption func(*queryConfig)

// QueryMaxCells caps the intermediate inference factor at cells; <= 0
// (the default) selects DefaultInferenceCells. A query that would
// exceed the cap fails with an error wrapping infer.ErrTooLarge rather
// than allocating, in which case callers fall back to sampling.
func QueryMaxCells(cells int) QueryOption {
	return func(c *queryConfig) { c.maxCells = cells }
}

// QueryParallelism bounds the workers fanning out large factor
// products; <= 0 (the default) uses all CPU cores. Every setting
// returns bit-identical answers — cell products are independent writes
// — so parallelism only changes latency on very large factors.
func QueryParallelism(p int) QueryOption {
	return func(c *queryConfig) { c.parallelism = p }
}

// QueryStats directs the engine's work counters (factor products, peak
// cells) into s, for telemetry at the serving layer. Observational
// only: filling s cannot change the answer.
func QueryStats(s *infer.Stats) QueryOption {
	return func(c *queryConfig) { c.stats = s }
}

// Query answers q by exact variable-elimination inference over the
// model's conditional tables — no sampling, no privacy cost, and
// microsecond latency for low-dimensional queries (see BenchmarkQuery
// vs BenchmarkSynthesizeThenScan). ctx cancels a long-running query
// between factor operations. A Model is immutable after fitting, so
// concurrent Query calls are safe.
func (m *Model) Query(ctx context.Context, q Query, opts ...QueryOption) (*QueryResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	var cfg queryConfig
	for _, o := range opts {
		if o != nil {
			o(&cfg)
		}
	}

	targets, evidence, err := m.compileQuery(q)
	if err != nil {
		return nil, err
	}
	opt := infer.Options{MaxCells: cfg.maxCells, Parallelism: cfg.parallelism, Stats: cfg.stats}

	table, err := m.engine().Joint(ctx, targets, evidence, opt)
	if err != nil {
		return nil, err
	}
	res := &QueryResult{Kind: q.Kind.String()}
	switch q.Kind {
	case QueryMarginal, QueryConditional:
		if q.Kind == QueryConditional {
			mass := table.Sum()
			if mass <= 0 {
				return nil, fmt.Errorf("core: conditional %v: %w", q.Attrs, ErrImpossibleEvidence)
			}
			table.Scale(1 / mass)
		}
		res.Attrs = make([]string, len(q.Attrs))
		res.Levels = make([]int, len(q.Attrs))
		for i, a := range q.Attrs {
			res.Attrs[i] = a.Name
			res.Levels[i] = a.Level
		}
		res.Dims = table.Dims
		res.P = table.P
	case QueryProb:
		res.Value = table.P[0]
	case QueryCount:
		res.Value = float64(q.N) * table.P[0]
	}
	return res, nil
}

// compileQuery resolves the AST's attribute names and value labels
// against the model's schema into engine targets and evidence masks.
func (m *Model) compileQuery(q Query) ([]infer.Target, []infer.Evidence, error) {
	switch q.Kind {
	case QueryMarginal, QueryConditional:
		if len(q.Attrs) == 0 {
			return nil, nil, fmt.Errorf("core: %v query names no attributes", q.Kind)
		}
	case QueryProb, QueryCount:
		if len(q.Attrs) != 0 {
			return nil, nil, fmt.Errorf("core: %v query cannot have target attributes (use predicates)", q.Kind)
		}
		if len(q.Where) == 0 {
			return nil, nil, fmt.Errorf("core: %v query needs at least one predicate", q.Kind)
		}
		if q.Kind == QueryCount && q.N < 0 {
			return nil, nil, fmt.Errorf("core: count query has negative n %d", q.N)
		}
	default:
		return nil, nil, fmt.Errorf("core: unknown query kind %v", q.Kind)
	}

	targets := make([]infer.Target, len(q.Attrs))
	for i, ref := range q.Attrs {
		a, err := m.attrIndex(ref.Name)
		if err != nil {
			return nil, nil, err
		}
		if ref.Level < 0 || ref.Level >= m.Attrs[a].Height() {
			return nil, nil, fmt.Errorf("core: attribute %q has no taxonomy level %d (heights 0..%d)",
				ref.Name, ref.Level, m.Attrs[a].Height()-1)
		}
		targets[i] = infer.Target{Attr: a, Level: ref.Level}
	}

	evidence := make([]infer.Evidence, 0, len(q.Where))
	masks := make(map[int][]bool, len(q.Where))
	for _, pred := range q.Where {
		a, err := m.attrIndex(pred.Attr)
		if err != nil {
			return nil, nil, err
		}
		if len(pred.Values) == 0 {
			return nil, nil, fmt.Errorf("core: predicate on %q has no values", pred.Attr)
		}
		mask := masks[a]
		if mask == nil {
			mask = make([]bool, m.Attrs[a].Size())
			masks[a] = mask
			evidence = append(evidence, infer.Evidence{Attr: a, Allowed: mask})
		}
		for _, v := range pred.Values {
			code, err := resolveValue(&m.Attrs[a], v)
			if err != nil {
				return nil, nil, err
			}
			mask[code] = true
		}
	}
	for _, t := range targets {
		if masks[t.Attr] != nil {
			return nil, nil, fmt.Errorf("core: attribute %q is both a query target and a predicate", m.Attrs[t.Attr].Name)
		}
	}
	return targets, evidence, nil
}

// attrIndex resolves an attribute name against the schema.
func (m *Model) attrIndex(name string) (int, error) {
	for i := range m.Attrs {
		if m.Attrs[i].Name == name {
			return i, nil
		}
	}
	return 0, fmt.Errorf("core: unknown attribute %q", name)
}

// resolveValue maps a predicate value to a raw code: the attribute's
// label, or — for continuous attributes — a plain number selecting the
// bin containing it.
func resolveValue(a *dataset.Attribute, v string) (int, error) {
	if code := a.Code(v); code >= 0 {
		return code, nil
	}
	if a.Kind == dataset.Continuous {
		if x, err := strconv.ParseFloat(v, 64); err == nil {
			return a.Bin(x), nil
		}
	}
	return 0, fmt.Errorf("core: attribute %q has no value %q", a.Name, v)
}
