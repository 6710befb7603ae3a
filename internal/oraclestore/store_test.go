package oraclestore

import (
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/testspec"
	"repro/internal/thermal"
)

func alphaDesc(t *testing.T) (SystemDesc, *testspec.Spec, *thermal.Model) {
	t.Helper()
	spec := testspec.Alpha21364()
	cfg := thermal.DefaultPackageConfig()
	m, err := thermal.NewModel(spec.Floorplan(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return DescForBlockModel(spec.Floorplan(), cfg, spec.Profile()), spec, m
}

func openSystem(t *testing.T, dir string) (*Store, *SystemCache) {
	t.Helper()
	desc, _, _ := alphaDesc(t)
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := st.System(desc)
	if err != nil {
		t.Fatal(err)
	}
	return st, sc
}

func TestSystemCacheRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st, sc := openSystem(t, dir)

	temps := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15.5}
	if err := sc.Put([]int{3, 0, 7}, temps); err != nil {
		t.Fatal(err)
	}
	got, ok := sc.Get([]int{7, 3, 0}) // permuted: keys are canonical
	if !ok {
		t.Fatal("permuted active set missed")
	}
	for i := range temps {
		if got[i] != temps[i] {
			t.Fatalf("temps[%d] = %g, want %g (bit-exact persistence)", i, got[i], temps[i])
		}
	}
	got[0] = -999
	again, _ := sc.Get([]int{0, 3, 7})
	if again[0] == -999 {
		t.Error("Get handed out the internal slice")
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Re-open in a "new process": the record must come back bit-exact.
	st2, sc2 := openSystem(t, dir)
	defer st2.Close()
	if sc2.Loaded() != 1 {
		t.Fatalf("warm open loaded %d records, want 1", sc2.Loaded())
	}
	back, ok := sc2.Get([]int{0, 3, 7})
	if !ok {
		t.Fatal("persisted record missing after reopen")
	}
	for i := range temps {
		if back[i] != temps[i] {
			t.Fatalf("reloaded temps[%d] = %g, want %g", i, back[i], temps[i])
		}
	}
}

func TestSystemCachePutValidation(t *testing.T) {
	st, sc := openSystem(t, t.TempDir())
	defer st.Close()
	temps := make([]float64, 15)
	if err := sc.Put([]int{1, 1}, temps); err == nil {
		t.Error("duplicate core accepted")
	}
	if err := sc.Put([]int{99}, temps); err == nil {
		t.Error("out-of-range core accepted")
	}
	if err := sc.Put([]int{1}, temps[:3]); err == nil {
		t.Error("short temps accepted")
	}
	if err := sc.Put([]int{1}, temps); err != nil {
		t.Errorf("valid put failed: %v", err)
	}
	if err := sc.Put([]int{1}, temps); err != nil {
		t.Errorf("re-put should be a no-op, got %v", err)
	}
	if sc.Len() != 1 {
		t.Errorf("Len = %d, want 1", sc.Len())
	}
}

// TestEmptyActiveSetRejected: the record format reserves nActive >= 1, so an
// empty set must be refused at Put (not written as a record the next load
// would treat as corruption, truncating every record appended after it) —
// and an empty-set oracle query must still answer without damaging the file.
func TestEmptyActiveSetRejected(t *testing.T) {
	dir := t.TempDir()
	desc, spec, m := alphaDesc(t)
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := st.System(desc)
	if err != nil {
		t.Fatal(err)
	}
	temps := make([]float64, 15)
	if err := sc.Put([]int{0}, temps); err != nil {
		t.Fatal(err)
	}
	if err := sc.Put([]int{}, temps); err == nil {
		t.Fatal("empty-set Put accepted")
	}
	if _, ok := sc.Get(nil); ok {
		t.Fatal("empty-set Get hit")
	}
	// Through the oracle stack: the all-idle query still answers (ambient
	// field) and must not poison the file.
	oracle := sc.Wrap(core.NewSimOracle(m, spec.Profile()))
	if _, err := oracle.BlockTemps(nil); err != nil {
		t.Fatalf("empty-set oracle query failed: %v", err)
	}
	if err := sc.Put([]int{1}, temps); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, sc2 := openSystem(t, dir)
	defer st2.Close()
	if sc2.Loaded() != 2 {
		t.Fatalf("reloaded %d records, want 2 (no empty record, no truncation)", sc2.Loaded())
	}
	if sc2.Recovered() != 0 {
		t.Errorf("recovered %d bytes, want 0", sc2.Recovered())
	}
	if _, ok := sc2.Get([]int{1}); !ok {
		t.Error("record appended after the rejected empty set was lost")
	}
}

// TestTwoHandlesSameDirAppendSafely: a second Store on the same directory
// (same or another process) appends with O_APPEND, so concurrent handles can
// at worst duplicate records — never overwrite or corrupt earlier ones.
func TestTwoHandlesSameDirAppendSafely(t *testing.T) {
	dir := t.TempDir()
	desc, _, _ := alphaDesc(t)
	stA, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	stB, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	scA, err := stA.System(desc)
	if err != nil {
		t.Fatal(err)
	}
	scB, err := stB.System(desc)
	if err != nil {
		t.Fatal(err)
	}
	temps := make([]float64, 15)
	// Interleaved appends from both handles, including a duplicate key.
	for i := 0; i < 5; i++ {
		temps[0] = float64(i)
		if err := scA.Put([]int{i}, temps); err != nil {
			t.Fatal(err)
		}
		temps[0] = float64(i + 100)
		if err := scB.Put([]int{i + 5}, temps); err != nil {
			t.Fatal(err)
		}
	}
	if err := scB.Put([]int{0}, temps); err != nil { // duplicate of A's first key
		t.Fatal(err)
	}
	if err := stA.Close(); err != nil {
		t.Fatal(err)
	}
	if err := stB.Close(); err != nil {
		t.Fatal(err)
	}

	st2, sc2 := openSystem(t, dir)
	defer st2.Close()
	if sc2.Recovered() != 0 {
		t.Fatalf("interleaved handles corrupted the file: %d bytes recovered", sc2.Recovered())
	}
	if sc2.Len() != 10 {
		t.Fatalf("reloaded %d distinct records, want 10", sc2.Len())
	}
	for i := 0; i < 10; i++ {
		if _, ok := sc2.Get([]int{i}); !ok {
			t.Errorf("record {%d} lost across handles", i)
		}
	}
}

func TestSystemKeyDistinguishesInputs(t *testing.T) {
	desc, spec, m := alphaDesc(t)
	base, err := desc.Key()
	if err != nil {
		t.Fatal(err)
	}

	// Same inputs → same key (content addressing is deterministic).
	same, err := DescForBlockModel(spec.Floorplan(), m.Config(), spec.Profile()).Key()
	if err != nil {
		t.Fatal(err)
	}
	if base != same {
		t.Error("identical system produced different keys")
	}

	variants := []SystemDesc{}
	hot := desc
	cfgHot := hot.Package
	cfgHot.Ambient += 5
	hot.Package = cfgHot
	variants = append(variants, hot)

	backend := desc
	backend.Backend = "grid-32x32/sparse-cholesky"
	variants = append(variants, backend)

	tol := desc
	tol.Tolerance = 1e-6
	variants = append(variants, tol)

	fig1 := testspec.Figure1()
	variants = append(variants, SystemDesc{
		Floorplan: fig1.Floorplan(),
		Package:   desc.Package,
		Profile:   fig1.Profile(),
		Backend:   desc.Backend,
	})

	for i, v := range variants {
		k, err := v.Key()
		if err != nil {
			t.Fatalf("variant %d: %v", i, err)
		}
		if k == base {
			t.Errorf("variant %d collided with the base key", i)
		}
	}
}

// TestCorruptTailTruncated flips a byte in the last record: the reload must
// keep every earlier record, drop the corrupt one, and accept new appends.
func TestCorruptTailTruncated(t *testing.T) {
	dir := t.TempDir()
	st, sc := openSystem(t, dir)
	temps := make([]float64, 15)
	for i := 0; i < 5; i++ {
		temps[0] = float64(i)
		if err := sc.Put([]int{i}, temps); err != nil {
			t.Fatal(err)
		}
	}
	path := sc.Path()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-10] ^= 0xFF // corrupt the final record's temps
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	st2, sc2 := openSystem(t, dir)
	if sc2.Loaded() != 4 {
		t.Fatalf("loaded %d records after corruption, want 4", sc2.Loaded())
	}
	if sc2.Recovered() == 0 {
		t.Error("recovered byte count not reported")
	}
	if _, ok := sc2.Get([]int{4}); ok {
		t.Error("corrupt record served")
	}
	if _, ok := sc2.Get([]int{3}); !ok {
		t.Error("valid record before the corruption lost")
	}
	// The file must be append-consistent again.
	temps[0] = 42
	if err := sc2.Put([]int{4}, temps); err != nil {
		t.Fatal(err)
	}
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}
	st3, sc3 := openSystem(t, dir)
	defer st3.Close()
	if sc3.Loaded() != 5 {
		t.Fatalf("after heal+append: loaded %d, want 5", sc3.Loaded())
	}
	back, ok := sc3.Get([]int{4})
	if !ok || back[0] != 42 {
		t.Error("re-appended record lost or wrong")
	}
}

// TestTornWriteTruncated simulates a crash mid-append by cutting the file
// inside the final record.
func TestTornWriteTruncated(t *testing.T) {
	dir := t.TempDir()
	st, sc := openSystem(t, dir)
	temps := make([]float64, 15)
	for i := 0; i < 3; i++ {
		if err := sc.Put([]int{i}, temps); err != nil {
			t.Fatal(err)
		}
	}
	path := sc.Path()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st1, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, st1.Size()-7); err != nil {
		t.Fatal(err)
	}

	st2, sc2 := openSystem(t, dir)
	defer st2.Close()
	if sc2.Loaded() != 2 {
		t.Fatalf("loaded %d records after torn write, want 2", sc2.Loaded())
	}
	if sc2.Recovered() == 0 {
		t.Error("torn bytes not reported as recovered")
	}
}

// TestHeaderCorruptionResets: an unreadable header discards the cache (it is
// derived data) instead of serving records for the wrong system.
func TestHeaderCorruptionResets(t *testing.T) {
	dir := t.TempDir()
	st, sc := openSystem(t, dir)
	if err := sc.Put([]int{1}, make([]float64, 15)); err != nil {
		t.Fatal(err)
	}
	path := sc.Path()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[20] ^= 0xFF // corrupt the stored system key
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	st2, sc2 := openSystem(t, dir)
	defer st2.Close()
	if sc2.Loaded() != 0 {
		t.Errorf("loaded %d records from a mismatched header, want 0", sc2.Loaded())
	}
	if sc2.Recovered() == 0 {
		t.Error("header reset not reported as recovered bytes")
	}
	if err := sc2.Put([]int{1}, make([]float64, 15)); err != nil {
		t.Fatalf("cache unusable after header reset: %v", err)
	}
}

func TestStoreFileLayout(t *testing.T) {
	dir := t.TempDir()
	st, sc := openSystem(t, dir)
	defer st.Close()
	rel, err := filepath.Rel(dir, sc.Path())
	if err != nil {
		t.Fatal(err)
	}
	// Two-level fan-out: <hex[:2]>/<hex>.tsoc
	d, f := filepath.Split(rel)
	if len(d) != 3 || filepath.Ext(f) != ".tsoc" {
		t.Errorf("unexpected layout %q", rel)
	}
}

// TestWrapLazyOracleSkipsBuildOnWarmStore: the store wrapped over a
// core.LazyOracle — the composition the system assembly uses for grid
// oracles — builds the inner oracle once when cold and never when warm.
func TestWrapLazyOracleSkipsBuildOnWarmStore(t *testing.T) {
	dir := t.TempDir()
	desc, spec, m := alphaDesc(t)
	sim := core.NewSimOracle(m, spec.Profile())

	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := st.System(desc)
	if err != nil {
		t.Fatal(err)
	}
	builds := 0
	oracle := sc.Wrap(core.NewLazyOracle(func() (core.Oracle, error) { builds++; return sim, nil }))
	sessions := [][]int{{0}, {1, 2}, {3, 4, 5}}
	want := make([][]float64, len(sessions))
	for i, s := range sessions {
		temps, err := oracle.BlockTemps(s)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = temps
	}
	if builds != 1 {
		t.Fatalf("inner oracle built %d times, want 1", builds)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Warm process: every query answered from disk, builder never runs.
	st2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	sc2, err := st2.System(desc)
	if err != nil {
		t.Fatal(err)
	}
	warmBuilds := 0
	warm := sc2.Wrap(core.NewLazyOracle(func() (core.Oracle, error) {
		warmBuilds++
		return core.NewSimOracle(m, spec.Profile()), nil
	}))
	for i, s := range sessions {
		temps, err := warm.BlockTemps(s)
		if err != nil {
			t.Fatal(err)
		}
		for k := range temps {
			if temps[k] != want[i][k] {
				t.Fatalf("warm session %d block %d: %g, want %g (bit-exact)", i, k, temps[k], want[i][k])
			}
		}
	}
	if warmBuilds != 0 {
		t.Errorf("warm store built the inner oracle %d times, want 0", warmBuilds)
	}
	if h, miss := sc2.Stats(); h != int64(len(sessions)) || miss != 0 {
		t.Errorf("warm stats = (%d, %d), want (%d, 0)", h, miss, len(sessions))
	}
}

func TestSystemCacheConcurrent(t *testing.T) {
	st, sc := openSystem(t, t.TempDir())
	defer st.Close()
	const goroutines = 8
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			temps := make([]float64, 15)
			for i := 0; i < 40; i++ {
				set := []int{(g + i) % 15}
				if tv, ok := sc.Get(set); ok && len(tv) != 15 {
					t.Error("short temps from Get")
					return
				}
				temps[0] = float64((g + i) % 15)
				if err := sc.Put(set, temps); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if sc.Len() != 15 {
		t.Errorf("Len = %d, want 15 distinct sets", sc.Len())
	}
}

func BenchmarkSystemCacheGet(b *testing.B) {
	spec := testspec.Alpha21364()
	st, err := Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	sc, err := st.System(DescForBlockModel(spec.Floorplan(), thermal.DefaultPackageConfig(), spec.Profile()))
	if err != nil {
		b.Fatal(err)
	}
	temps := make([]float64, spec.NumCores())
	active := []int{0, 3, 5, 8}
	if err := sc.Put(active, temps); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := sc.Get(active); !ok {
			b.Fatal("miss")
		}
	}
}

func TestStoreSharesSystemHandles(t *testing.T) {
	st, sc := openSystem(t, t.TempDir())
	defer st.Close()
	desc, _, _ := alphaDesc(t)
	sc2, err := st.System(desc)
	if err != nil {
		t.Fatal(err)
	}
	if sc != sc2 {
		t.Error("same system opened twice returned distinct caches")
	}
}

func TestStoreOracleBatch(t *testing.T) {
	dir := t.TempDir()
	desc, spec, m := alphaDesc(t)
	sim := core.NewSimOracle(m, spec.Profile())
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := st.System(desc)
	if err != nil {
		t.Fatal(err)
	}
	oracle := sc.Wrap(sim).(core.BatchOracle)

	// Mixed batch: one key warmed through the single path, the rest cold.
	warm, err := oracle.BlockTemps([]int{2})
	if err != nil {
		t.Fatal(err)
	}
	sessions := [][]int{{0}, {2}, {1, 3}}
	got, err := oracle.BlockTempsBatch(sessions)
	if err != nil {
		t.Fatal(err)
	}
	for b := range warm {
		if got[1][b] != warm[b] {
			t.Fatalf("batch store hit differs from single query at block %d", b)
		}
	}
	if hits, misses := sc.Stats(); hits != 1 || misses != 3 {
		t.Errorf("store stats = (%d hits, %d misses), want (1, 3)", hits, misses)
	}
	if sc.Len() != 3 {
		t.Errorf("store holds %d records, want 3 (batch misses persisted)", sc.Len())
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// A fresh process answers the whole batch from disk, bit-exact.
	st2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	sc2, err := st2.System(desc)
	if err != nil {
		t.Fatal(err)
	}
	builds := 0
	warmOracle := sc2.Wrap(core.NewLazyOracle(func() (core.Oracle, error) { builds++; return sim, nil })).(core.BatchOracle)
	again, err := warmOracle.BlockTempsBatch(sessions)
	if err != nil {
		t.Fatal(err)
	}
	if builds != 0 {
		t.Errorf("fully warm batch built the inner oracle %d times", builds)
	}
	for i := range got {
		for b := range got[i] {
			if again[i][b] != got[i][b] {
				t.Fatalf("warm batch session %d block %d differs (want bit-exact)", i, b)
			}
		}
	}
}
