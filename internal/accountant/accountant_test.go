package accountant

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func TestChargeAndExhaustion(t *testing.T) {
	l := New(1.0)
	if err := l.Charge("adult", 0.6); err != nil {
		t.Fatal(err)
	}
	err := l.Charge("adult", 0.6)
	if err == nil {
		t.Fatal("overdraw must fail")
	}
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Errorf("error %v does not match ErrBudgetExceeded", err)
	}
	var be *BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("error %v is not a *BudgetError", err)
	}
	if be.Dataset != "adult" || be.Spent != 0.6 || be.Budget != 1.0 {
		t.Errorf("BudgetError = %+v", be)
	}
	// Rejected charge leaves the ledger untouched.
	if got := l.Get("adult").Spent; got != 0.6 {
		t.Errorf("spent after rejection = %g, want 0.6", got)
	}
	// The remaining 0.4 is still spendable.
	if err := l.Charge("adult", 0.4); err != nil {
		t.Errorf("charging exactly the remainder: %v", err)
	}
	if rem := l.Get("adult").Remaining(); rem != 0 {
		t.Errorf("remaining = %g, want 0", rem)
	}
	// Other datasets are independent.
	if err := l.Charge("acs", 1.0); err != nil {
		t.Errorf("independent dataset: %v", err)
	}
}

func TestChargeRejectsInvalidInput(t *testing.T) {
	l := New(1)
	for _, eps := range []float64{0, -1, math.Inf(1), math.NaN()} {
		if err := l.Charge("d", eps); err == nil {
			t.Errorf("Charge(%g) must fail", eps)
		}
	}
	if err := l.Charge("", 0.1); err == nil {
		t.Error("empty dataset id must fail")
	}
	if got := l.Get("d").Spent; got != 0 {
		t.Errorf("invalid charges must not spend, got %g", got)
	}
}

func TestManyEqualSharesTolerance(t *testing.T) {
	// 10 × 0.1 must fit in a budget of 1.0 despite float dust.
	l := New(1.0)
	for i := 0; i < 10; i++ {
		if err := l.Charge("d", 0.1); err != nil {
			t.Fatalf("share %d: %v", i, err)
		}
	}
	if err := l.Charge("d", 0.1); err == nil {
		t.Error("11th share must fail")
	}
}

func TestRefund(t *testing.T) {
	l := New(1.0)
	if err := l.Charge("d", 0.8); err != nil {
		t.Fatal(err)
	}
	if err := l.Refund("d", 0.8); err != nil {
		t.Fatal(err)
	}
	if got := l.Get("d").Spent; got != 0 {
		t.Errorf("spent after refund = %g", got)
	}
	// Over-refund clamps at zero.
	if err := l.Charge("d", 0.2); err != nil {
		t.Fatal(err)
	}
	if err := l.Refund("d", 5); err != nil {
		t.Fatal(err)
	}
	if got := l.Get("d").Spent; got != 0 {
		t.Errorf("spent after over-refund = %g", got)
	}
}

func TestSetBudget(t *testing.T) {
	l := New(1.0)
	if err := l.SetBudget("d", 3.0); err != nil {
		t.Fatal(err)
	}
	if err := l.Charge("d", 2.5); err != nil {
		t.Errorf("raised budget: %v", err)
	}
	// Lowering below spend is allowed; further charges fail.
	if err := l.SetBudget("d", 2.0); err != nil {
		t.Fatal(err)
	}
	if err := l.Charge("d", 0.1); !errors.Is(err, ErrBudgetExceeded) {
		t.Errorf("charge past lowered budget: %v", err)
	}
	if err := l.SetBudget("d", 0); err == nil {
		t.Error("zero budget must be rejected")
	}
}

// TestConcurrentCharges races many goroutines on one ledger entry: with
// a budget of 1.0 and charges of 0.1, exactly 10 must succeed no matter
// how the goroutines interleave. Run under -race in CI.
func TestConcurrentCharges(t *testing.T) {
	l := New(1.0)
	const workers = 50
	var wg sync.WaitGroup
	results := make([]error, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = l.Charge("shared", 0.1)
		}(i)
	}
	wg.Wait()
	ok := 0
	for _, err := range results {
		if err == nil {
			ok++
		} else if !errors.Is(err, ErrBudgetExceeded) {
			t.Errorf("unexpected error: %v", err)
		}
	}
	if ok != 10 {
		t.Errorf("%d charges succeeded, want exactly 10", ok)
	}
	if spent := l.Get("shared").Spent; math.Abs(spent-1.0) > 1e-9 {
		t.Errorf("total spent = %g, want 1.0", spent)
	}
}

// TestConcurrentMixedOps hammers all mutating entry points together so
// the race detector sees every lock interaction.
func TestConcurrentMixedOps(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenWAL(filepath.Join(dir, "ledger"), 100, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id := []string{"a", "b"}[i%2]
			for j := 0; j < 20; j++ {
				_ = l.Charge(id, 0.05)
				_ = l.Get(id)
				_ = l.Snapshot()
				if j%5 == 0 {
					_ = l.Refund(id, 0.01)
				}
			}
		}(i)
	}
	wg.Wait()
	if len(l.Datasets()) != 2 {
		t.Errorf("datasets = %v", l.Datasets())
	}
}

func TestPersistenceRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ledger")
	l, err := OpenWAL(path, 2.0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Charge("adult", 0.7); err != nil {
		t.Fatal(err)
	}
	if err := l.SetBudget("acs", 5.0); err != nil {
		t.Fatal(err)
	}
	if err := l.Charge("acs", 4.0); err != nil {
		t.Fatal(err)
	}

	l.Close()

	// A fresh process opens the same file: spend and budgets survive,
	// and the budget keeps binding across restarts.
	back, err := OpenWAL(path, 2.0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	if e := back.Get("adult"); e.Spent != 0.7 || e.Budget != 2.0 {
		t.Errorf("adult entry = %+v", e)
	}
	if e := back.Get("acs"); e.Spent != 4.0 || e.Budget != 5.0 {
		t.Errorf("acs entry = %+v", e)
	}
	if err := back.Charge("adult", 1.4); !errors.Is(err, ErrBudgetExceeded) {
		t.Errorf("reloaded ledger must still enforce the budget, got %v", err)
	}
}

// TestOpenRejectsCorruptLedger: a legacy JSON ledger OpenWAL cannot
// trust refuses startup and is left untouched — never migrated into an
// empty or partial WAL that would forget recorded spend.
func TestOpenRejectsCorruptLedger(t *testing.T) {
	cases := map[string]string{
		// Garbage must start with '{': only such files are routed to the
		// legacy parser (anything else is read as a WAL).
		"garbage":        `{not json`,
		"wrong version":  `{"version":99,"datasets":{}}`,
		"negative spend": `{"version":1,"datasets":{"d":{"spent":-1,"budget":1}}}`,
		"zero budget":    `{"version":1,"datasets":{"d":{"spent":0,"budget":0}}}`,
		// Some other JSON document — a model artifact, say — landed on
		// the ledger path.
		"unknown field": `{"version":1,"datasets":{},"network":[]}`,
		// JSON has no NaN literal, so this fails at decode time.
		"NaN spend": `{"version":1,"datasets":{"d":{"spent":NaN,"budget":1}}}`,
	}
	for name, raw := range cases {
		path := filepath.Join(t.TempDir(), "ledger.json")
		writeLegacyLedger(t, path, raw)
		if l, err := OpenWAL(path, 1, Options{}); err == nil {
			l.Close()
			t.Errorf("%s: OpenWAL must fail", name)
		}
		if got, err := os.ReadFile(path); err != nil || string(got) != raw {
			t.Errorf("%s: refused ledger was modified (%q, %v)", name, got, err)
		}
	}
}

func TestOpenMissingFileStartsEmpty(t *testing.T) {
	l, err := OpenWAL(filepath.Join(t.TempDir(), "fresh"), 1.5, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if e := l.Get("x"); e.Spent != 0 || e.Budget != 1.5 {
		t.Errorf("fresh entry = %+v", e)
	}
	if _, err := OpenWAL(filepath.Join(t.TempDir(), "x"), 0, Options{}); err == nil {
		t.Error("non-positive default budget must be rejected")
	}
}
