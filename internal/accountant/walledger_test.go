package accountant

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"privbayes/internal/faultfs"
)

func TestOpenWALRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ledger")
	l, err := OpenWAL(path, 2.0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Charge("a", 0.5); err != nil {
		t.Fatal(err)
	}
	if err := l.SetBudget("b", 5.0); err != nil {
		t.Fatal(err)
	}
	if err := l.Charge("b", 3.0); err != nil {
		t.Fatal(err)
	}
	if err := l.Refund("a", 0.2); err != nil {
		t.Fatal(err)
	}
	l.Close()

	l2, err := OpenWAL(path, 2.0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if e := l2.Get("a"); math.Abs(e.Spent-0.3) > 1e-12 || e.Budget != 2.0 {
		t.Errorf("a = %+v", e)
	}
	if e := l2.Get("b"); e.Spent != 3.0 || e.Budget != 5.0 {
		t.Errorf("b = %+v", e)
	}
	// The recovered ledger still enforces the budget.
	if err := l2.Charge("b", 2.5); !errors.Is(err, ErrBudgetExceeded) {
		t.Errorf("overdraw after recovery: %v", err)
	}
}

// writeLegacyLedger writes a hand-written ledger in the legacy JSON
// format — one document, rewritten whole on every mutation by releases
// before the WAL — for OpenWAL to migrate.
func writeLegacyLedger(t *testing.T, path, doc string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestClosedLedgerRefusesMutations: once Close has released the WAL, a
// mutation cannot be made durable, so it must fail with ErrPersist and
// leave the ledger unchanged rather than be acknowledged in memory.
func TestClosedLedgerRefusesMutations(t *testing.T) {
	l, err := OpenWAL(filepath.Join(t.TempDir(), "ledger"), 2.0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Charge("d", 0.5); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Charge("d", 0.1); !errors.Is(err, ErrPersist) {
		t.Fatalf("charge after Close: err = %v, want ErrPersist", err)
	}
	if e := l.Get("d"); e.Spent != 0.5 {
		t.Fatalf("spent = %g after a refused charge, want 0.5", e.Spent)
	}
}

func TestOpenWALMigratesLegacyJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ledger.json")
	writeLegacyLedger(t, path, `{
  "version": 1,
  "default_budget": 2,
  "datasets": {
    "other": {"spent": 0, "budget": 9},
    "survey": {"spent": 0.7, "budget": 2}
  }
}
`)

	l, err := OpenWAL(path, 2.0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if e := l.Get("survey"); e.Spent != 0.7 || e.Budget != 2.0 {
		t.Errorf("survey after migration = %+v", e)
	}
	if e := l.Get("other"); e.Budget != 9.0 {
		t.Errorf("other after migration = %+v", e)
	}
	if err := l.Charge("survey", 1.0); err != nil {
		t.Fatal(err)
	}
	l.Close()

	// The file is now a WAL — and keeps working across another cycle.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(raw), "PBWAL") {
		t.Fatalf("migrated file does not start with WAL magic: %q", raw[:8])
	}
	l2, err := OpenWAL(path, 2.0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if e := l2.Get("survey"); math.Abs(e.Spent-1.7) > 1e-12 {
		t.Errorf("survey after second open = %+v", e)
	}
	if stray, _ := filepath.Glob(path + ".migrate"); len(stray) != 0 {
		t.Errorf("leftover migration file: %v", stray)
	}
}

func TestChargeIdempotent(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ledger")
	l, err := OpenWAL(path, 2.0, Options{CompactEvery: 3})
	if err != nil {
		t.Fatal(err)
	}
	dup, modelID, err := l.ChargeIdempotent("d", 0.5, "key-1", "d-v1")
	if err != nil || dup || modelID != "d-v1" {
		t.Fatalf("first keyed charge: dup=%v model=%q err=%v", dup, modelID, err)
	}
	// Same key, same parameters: no second spend, original model id.
	dup, modelID, err = l.ChargeIdempotent("d", 0.5, "key-1", "d-v2")
	if err != nil || !dup || modelID != "d-v1" {
		t.Fatalf("duplicate keyed charge: dup=%v model=%q err=%v", dup, modelID, err)
	}
	if e := l.Get("d"); e.Spent != 0.5 {
		t.Fatalf("spent after duplicate = %g, want 0.5", e.Spent)
	}
	// Same key, different parameters: typed rejection.
	if _, _, err := l.ChargeIdempotent("d", 0.9, "key-1", ""); !errors.Is(err, ErrIdempotencyMismatch) {
		t.Fatalf("mismatched key reuse: %v", err)
	}
	// Force several compactions; the key must survive checkpoints.
	for i := 0; i < 6; i++ {
		if err := l.Charge("filler", 0.1); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()

	l2, err := OpenWAL(path, 2.0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	dup, modelID, err = l2.ChargeIdempotent("d", 0.5, "key-1", "d-v3")
	if err != nil || !dup || modelID != "d-v1" {
		t.Fatalf("keyed charge after restart: dup=%v model=%q err=%v", dup, modelID, err)
	}
	if e := l2.Get("d"); e.Spent != 0.5 {
		t.Fatalf("spent after restart retry = %g, want 0.5", e.Spent)
	}
	info, ok := l2.ChargedKey("key-1")
	if !ok || info.ModelID != "d-v1" || info.Eps != 0.5 {
		t.Fatalf("ChargedKey = %+v, %v", info, ok)
	}
	// Refunding under the key forgets it: the next keyed charge pays.
	if err := l2.RefundIdempotent("d", 0.5, "key-1"); err != nil {
		t.Fatal(err)
	}
	dup, _, err = l2.ChargeIdempotent("d", 0.5, "key-1", "d-v4")
	if err != nil || dup {
		t.Fatalf("keyed charge after refund: dup=%v err=%v", dup, err)
	}
	if e := l2.Get("d"); e.Spent != 0.5 {
		t.Fatalf("spent after refund+recharge = %g, want 0.5", e.Spent)
	}
}

func TestWALCompactionBoundsFileSize(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ledger")
	l, err := OpenWAL(path, 1e9, Options{CompactEvery: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		if err := l.Charge("hot", 0.001); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	// 500 records ≈ 60+ KiB uncompacted; the checkpointed log stays
	// within a couple of records of the threshold.
	if fi.Size() > 4096 {
		t.Fatalf("log size %d bytes — compaction not bounding growth", fi.Size())
	}
	l2, err := OpenWAL(path, 1e9, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if e := l2.Get("hot"); math.Abs(e.Spent-0.5) > 1e-9 {
		t.Errorf("spent after compacted recovery = %g, want 0.5", e.Spent)
	}
}

func TestCorruptLedgerRefusedThenFsck(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ledger")
	l, err := OpenWAL(path, 2.0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, ds := range []string{"a", "b", "c"} {
		if err := l.Charge(ds, 0.25); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()

	// Flip a byte inside the SECOND record's payload (mid-file).
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	mid := len(raw) / 2
	raw[mid] ^= 0xFF
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	_, err = OpenWAL(path, 2.0, Options{})
	if !errors.Is(err, ErrLedgerCorrupt) {
		t.Fatalf("corrupt ledger open: %v, want ErrLedgerCorrupt", err)
	}
	var ce *CorruptError
	if !errors.As(err, &ce) || ce.Offset <= 0 {
		t.Fatalf("err = %#v, want *CorruptError with positive offset", err)
	}

	// Fsck: open succeeds, keeping everything before the damage.
	l2, err := OpenWAL(path, 2.0, Options{Fsck: true})
	if err != nil {
		t.Fatalf("fsck open: %v", err)
	}
	defer l2.Close()
	if e := l2.Get("a"); e.Spent != 0.25 {
		t.Errorf("a after fsck = %+v", e)
	}
}

// ledgerModel is the pure in-memory reference the crash sweep compares
// recovered state against.
type ledgerModel struct {
	def      float64
	datasets map[string]Entry
}

func newModel(def float64) *ledgerModel {
	return &ledgerModel{def: def, datasets: map[string]Entry{}}
}

func (m *ledgerModel) entry(ds string) Entry {
	if e, ok := m.datasets[ds]; ok {
		return e
	}
	return Entry{Budget: m.def}
}

// op is one scripted ledger mutation.
type op struct {
	kind    string // "charge", "refund", "budget", "idem"
	dataset string
	eps     float64
	key     string
}

func (m *ledgerModel) apply(o op) {
	e := m.entry(o.dataset)
	switch o.kind {
	case "charge", "idem":
		e.Spent += o.eps
	case "refund":
		if _, ok := m.datasets[o.dataset]; !ok {
			return
		}
		e.Spent -= o.eps
		if e.Spent < 0 {
			e.Spent = 0
		}
	case "budget":
		e.Budget = o.eps
	}
	m.datasets[o.dataset] = e
}

func (m *ledgerModel) equal(snap map[string]Entry) bool {
	if len(m.datasets) != len(snap) {
		return false
	}
	for ds, e := range m.datasets {
		g, ok := snap[ds]
		if !ok || math.Abs(g.Spent-e.Spent) > 1e-12 || g.Budget != e.Budget {
			return false
		}
	}
	return true
}

// crashScript is the workload the sweep replays: enough mutations to
// cross the compaction threshold twice, plus an idempotent charge on
// its own dataset.
var crashScript = []op{
	{kind: "charge", dataset: "a", eps: 0.3},
	{kind: "budget", dataset: "b", eps: 4.0},
	{kind: "charge", dataset: "b", eps: 1.5},
	{kind: "idem", dataset: "idem-ds", eps: 0.7, key: "fit-key-1"},
	{kind: "refund", dataset: "a", eps: 0.1},
	{kind: "charge", dataset: "a", eps: 0.4},
	{kind: "charge", dataset: "b", eps: 0.5},
	{kind: "refund", dataset: "b", eps: 0.25},
	{kind: "charge", dataset: "c", eps: 1.0},
	{kind: "budget", dataset: "c", eps: 3.0},
}

// runScript executes the script against a ledger opened on fs,
// returning how many ops were acknowledged and the first
// persistence-failure op index (-1 if none).
func runScript(fs faultfs.FS, path string) (committed int, inflight int) {
	inflight = -1
	l, err := OpenWAL(path, 2.0, Options{FS: fs, CompactEvery: 4})
	if err != nil {
		return 0, -1 // crash during open/recovery: nothing committed this run
	}
	defer l.Close()
	for i, o := range crashScript {
		var err error
		switch o.kind {
		case "charge":
			err = l.Charge(o.dataset, o.eps)
		case "idem":
			_, _, err = l.ChargeIdempotent(o.dataset, o.eps, o.key, "m-"+o.dataset)
		case "refund":
			err = l.Refund(o.dataset, o.eps)
		case "budget":
			err = l.SetBudget(o.dataset, o.eps)
		}
		if err != nil {
			if errors.Is(err, ErrPersist) && inflight == -1 {
				inflight = i
			}
			return committed, inflight
		}
		committed = i + 1
	}
	return committed, inflight
}

// TestCrashSweepLedger is the fault-injection crash harness over the
// whole ledger stack: for every mutating filesystem operation in the
// workload (append, sync, compaction temp/rename/dir-sync, close), with
// and without torn final writes, crash there, recover with the real
// filesystem, and assert the recovered ledger equals replaying exactly
// the acknowledged ops — or those plus the single in-flight op (durable
// but unacknowledged is the allowed, conservative direction). Then
// retry the idempotent charge and assert it never double-spends.
func TestCrashSweepLedger(t *testing.T) {
	probe := faultfs.NewFault(nil)
	dir := t.TempDir()
	if c, _ := runScript(probe, filepath.Join(dir, "probe-ledger")); c != len(crashScript) {
		t.Fatalf("probe run committed %d of %d ops", c, len(crashScript))
	}
	total := probe.Ops()
	if total < 20 {
		t.Fatalf("workload has only %d crash points, want >= 20", total)
	}
	t.Logf("sweeping %d crash points × {clean, torn}", total)

	for _, torn := range []bool{false, true} {
		for n := int64(1); n <= total; n++ {
			path := filepath.Join(t.TempDir(), "ledger")
			fault := faultfs.NewFault(nil)
			fault.CrashAt(n, torn)
			committed, inflight := runScript(fault, path)
			if !fault.Crashed() {
				t.Fatalf("crash point %d never reached", n)
			}

			rec, err := OpenWAL(path, 2.0, Options{})
			if err != nil {
				t.Fatalf("torn=%v crash at op %d: recovery failed: %v", torn, n, err)
			}
			snap := rec.Snapshot()

			want := newModel(2.0)
			for i := 0; i < committed; i++ {
				want.apply(crashScript[i])
			}
			ok := want.equal(snap)
			if !ok && inflight >= 0 {
				// The in-flight mutation reached disk before the crash:
				// allowed (never under-counts a charge the caller was
				// not told about — it was never acknowledged either).
				want.apply(crashScript[inflight])
				ok = want.equal(snap)
			}
			if !ok {
				t.Fatalf("torn=%v crash at fs-op %d: recovered %+v inconsistent with committed prefix %d (inflight %d)",
					torn, n, snap, committed, inflight)
			}

			// Exactly-once under retry: re-issue the idempotent charge.
			// Whether or not the original survived, idem-ds ends at
			// exactly one charge's worth of spend.
			if _, _, err := rec.ChargeIdempotent("idem-ds", 0.7, "fit-key-1", "m-idem-ds"); err != nil {
				t.Fatalf("torn=%v crash at op %d: idempotent retry: %v", torn, n, err)
			}
			if e := rec.Get("idem-ds"); math.Abs(e.Spent-0.7) > 1e-12 {
				t.Fatalf("torn=%v crash at op %d: idem-ds spent %g after retry, want exactly 0.7", torn, n, e.Spent)
			}
			rec.Close()
		}
	}
}

// TestCrashSweepLegacyMigration crashes at every point of the
// legacy-JSON → WAL migration: recovery must always yield either the
// legacy state (migration reruns) — never a torn in-between.
func TestCrashSweepLegacyMigration(t *testing.T) {
	makeLegacy := func(t *testing.T) string {
		path := filepath.Join(t.TempDir(), "ledger.json")
		writeLegacyLedger(t, path,
			`{"version":1,"default_budget":2,"datasets":{"x":{"spent":0.9,"budget":2},"y":{"spent":0,"budget":7}}}`)
		return path
	}

	probePath := makeLegacy(t)
	probe := faultfs.NewFault(nil)
	if l, err := OpenWAL(probePath, 2.0, Options{FS: probe}); err != nil {
		t.Fatal(err)
	} else {
		l.Close()
	}
	total := probe.Ops()

	for n := int64(1); n <= total; n++ {
		path := makeLegacy(t)
		fault := faultfs.NewFault(nil)
		fault.CrashAt(n, true)
		if l, err := OpenWAL(path, 2.0, Options{FS: fault}); err == nil {
			l.Close()
		}
		// Recover for real.
		l, err := OpenWAL(path, 2.0, Options{})
		if err != nil {
			t.Fatalf("crash at op %d: post-crash open: %v", n, err)
		}
		if e := l.Get("x"); e.Spent != 0.9 {
			t.Fatalf("crash at op %d: x = %+v", n, e)
		}
		if e := l.Get("y"); e.Budget != 7.0 {
			t.Fatalf("crash at op %d: y = %+v", n, e)
		}
		l.Close()
	}
}

// TestConcurrentChargesDuringCompaction hammers a WAL ledger with
// racing charges while a tiny compaction threshold keeps checkpointing
// concurrently (run under -race via make race). The total must come out
// exact and survive recovery.
func TestConcurrentChargesDuringCompaction(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ledger")
	l, err := OpenWAL(path, 1e9, Options{CompactEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	const workers, perWorker = 16, 25
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ds := []string{"alpha", "beta", "gamma"}[w%3]
			for i := 0; i < perWorker; i++ {
				if err := l.Charge(ds, 0.01); err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	var sum float64
	for _, e := range l.Snapshot() {
		sum += e.Spent
	}
	if want := workers * perWorker * 0.01; math.Abs(sum-want) > 1e-9 {
		t.Fatalf("total spent %g, want %g", sum, want)
	}
	snap := l.Snapshot()
	l.Close()

	l2, err := OpenWAL(path, 1e9, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	for ds, e := range snap {
		if g := l2.Get(ds); math.Abs(g.Spent-e.Spent) > 1e-12 {
			t.Errorf("recovered %s = %+v, want %+v", ds, g, e)
		}
	}
}

// TestLegacyPersistFaultRollsBack injects a failure into each
// filesystem op of a WAL append (write, fsync) on a ledger migrated
// from the legacy JSON format: the charge must report ErrPersist and
// leave the in-memory ledger unchanged, and recovery must agree.
func TestLegacyPersistFaultRollsBack(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ledger.json")
	writeLegacyLedger(t, path, `{"version":1,"default_budget":2,"datasets":{"d":{"spent":0.5,"budget":2}}}`)
	fault := faultfs.NewFault(nil)
	l, err := OpenWAL(path, 2.0, Options{FS: fault})
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 2; i++ {
		fault.FailAt(fault.Ops()+i, nil)
		err := l.Charge("d", 0.1)
		if !errors.Is(err, ErrPersist) {
			t.Fatalf("fault op +%d: err = %v, want ErrPersist", i, err)
		}
		if e := l.Get("d"); e.Spent != 0.5 {
			t.Fatalf("fault op +%d: spent = %g, want rollback to 0.5", i, e.Spent)
		}
	}
	// And with the fault cleared the charge lands.
	if err := l.Charge("d", 0.1); err != nil {
		t.Fatal(err)
	}
	if e := l.Get("d"); math.Abs(e.Spent-0.6) > 1e-12 {
		t.Fatalf("spent = %g, want 0.6", e.Spent)
	}
	l.Close()
	// Records carry post-state, so a record whose fsync failed but
	// which reached the file replays to the same spend.
	back, err := OpenWAL(path, 2.0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	if e := back.Get("d"); math.Abs(e.Spent-0.6) > 1e-12 {
		t.Fatalf("recovered spent = %g, want 0.6", e.Spent)
	}
}
