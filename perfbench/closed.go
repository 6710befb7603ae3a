package main

import (
	"crypto/sha256"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/oraclestore"
	"repro/internal/testspec"
	"repro/internal/thermal"
)

// closedWorkload is a workload one client drives in a closed loop: the next
// op starts when the previous one has returned.
type closedWorkload interface {
	// setup builds what the ops reuse, including the reference digests the
	// ops are checked against. It may run several times, with close
	// between; the last one wins.
	setup() error
	// op runs op number i, checking every schedule it produces.
	op(i int, tr *tracer) (opResult, error)
	close() error
}

type opResult struct {
	schedules int
	sims      int64    // simulations that reached the simulator
	digest    [32]byte // over the op's schedules, for traced/untraced identity
}

// window is what one timed window of ops measured.
type window struct {
	lat       []float64 // ms per op, in op order
	ops       []opResult
	failed    int
	schedules int
	mallocs   uint64
	gcPauseNs uint64
}

func (win *window) p50() float64 { return median(win.lat) }

// run runs up to n ops back to back, stopping early at deadline, and appends
// them to win; op numbers continue from the ops win already holds.
func (win *window) run(w closedWorkload, n int, deadline time.Time, tr *tracer, log io.Writer) {
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for k := 0; k < n && time.Now().Before(deadline); k++ {
		i := len(win.lat)
		tr.setOp(i)
		t0 := time.Now()
		r, err := w.op(i, tr)
		win.lat = append(win.lat, float64(time.Since(t0)-tr.takeProbe())/1e6)
		win.ops = append(win.ops, r)
		win.schedules += r.schedules
		if err != nil {
			if win.failed < 5 {
				fmt.Fprintf(log, "perfbench: op %d: %v\n", i, err)
			}
			win.failed++
		}
	}
	runtime.ReadMemStats(&ms1)
	win.mallocs += ms1.Mallocs - ms0.Mallocs
	win.gcPauseNs += ms1.PauseTotalNs - ms0.PauseTotalNs
}

// timedSetup runs setup repeats times and returns the median duration in
// seconds. Before each repeat after the first, teardown releases what the
// previous one built and the heap is collected, outside the timed window,
// so the window holds only the set-up itself.
func timedSetup(setup, teardown func() error, repeats int) (float64, error) {
	durs := make([]float64, repeats)
	for k := range durs {
		if k > 0 {
			if err := teardown(); err != nil {
				return 0, fmt.Errorf("teardown: %w", err)
			}
		}
		runtime.GC()
		t0 := time.Now()
		if err := setup(); err != nil {
			return 0, fmt.Errorf("setup: %w", err)
		}
		durs[k] = time.Since(t0).Seconds()
	}
	return median(durs), nil
}

func runClosed(w closedWorkload, wc workloadConfig, o options, log io.Writer) (map[string]float64, int, int, error) {
	defer w.close()
	values := make(map[string]float64)
	if !o.trace {
		setupS, err := timedSetup(w.setup, w.close, wc.SetupRepeats)
		if err != nil {
			return nil, 0, 0, err
		}
		runtime.GC()
		var win window
		win.run(w, math.MaxInt, time.Now().Add(o.window), nil, log)
		sorted := append([]float64(nil), win.lat...)
		sort.Float64s(sorted)
		tailMS, err := tail(sorted, wc.TailPercentile)
		if err != nil {
			return nil, 0, 0, fmt.Errorf("op_tail_ms: %w", err)
		}
		rss, err := peakRSSMB()
		if err != nil {
			return nil, 0, 0, err
		}
		values["setup_s"] = setupS
		values["op_p50_ms"] = win.p50()
		values["op_tail_ms"] = tailMS
		values["peak_rss_mb"] = rss
		fmt.Fprintf(log, "perfbench: %d ops, %d schedules, p50 %.3f ms, p90 %.3f ms, p95 %.3f ms, p99 %.3f ms\n",
			len(win.lat), win.schedules, win.p50(), pct(sorted, 90), pct(sorted, 95), pct(sorted, 99))
		return values, len(win.lat), win.failed, nil
	}

	// The untraced and the traced window take turns, one pass over the SoC
	// pool at a time, so that both see the same host conditions and their
	// difference is the tracing overhead. Op i of either window poses the
	// same problem, so their schedules can be compared op by op.
	if err := w.setup(); err != nil {
		return nil, 0, 0, fmt.Errorf("setup: %w", err)
	}
	runtime.GC()
	var un, tw window
	tr := newTracer()
	deadline := time.Now().Add(2 * o.window)
	for pass := 0; time.Now().Before(deadline); pass++ {
		if pass%2 == 0 {
			un.run(w, wc.PoolSize, deadline, nil, log)
		} else {
			tw.run(w, wc.PoolSize, deadline, tr, log)
		}
	}
	attempted, failed := len(un.lat)+len(tw.lat), un.failed+tw.failed
	for i := 0; i < min(len(un.ops), len(tw.ops)); i++ {
		if un.ops[i].digest != tw.ops[i].digest {
			if failed < 5 {
				fmt.Fprintf(log, "perfbench: op %d: traced schedules differ from untraced\n", i)
			}
			failed++
		}
	}
	if err := tr.write(spanPath(o)); err != nil {
		return nil, 0, 0, fmt.Errorf("writing spans: %w", err)
	}
	layerValues(values, wc, un, tw, tr)
	return values, attempted, failed, nil
}

// layerValues fills the per-layer metrics of a closed-loop traced run; the
// service-only ones read 0.
func layerValues(v map[string]float64, wc workloadConfig, un, tw window, tr *tracer) {
	for _, m := range perLayer {
		v[m.name] = 0
	}
	ops, sch := float64(len(tw.lat)), float64(tw.schedules)
	spanMS := tr.layerTime()
	c := tr.counts
	v["trace.untraced_p50_ms"] = un.p50()
	v["trace.traced_p50_ms"] = tw.p50()
	v["trace.overhead_pct"] = 100 * (tw.p50()/un.p50() - 1)
	v["core.generate_ms"] = ratio(spanMS["core.generate"], sch)
	v["core.self_ms"] = ratio(tr.selfTime("core.generate"), sch)
	v["core.sims_per_schedule"] = firstPassSims(un, wc)
	v["core.oracle_queries"] = ratio(c["tier1.hits"]+c["tier1.misses"], sch)
	v["core.attempts"] = ratio(c["core.attempts"], sch)
	v["core.violations"] = ratio(c["core.violations"], sch)
	v["core.tier1_hit_ratio"] = ratio(c["tier1.hits"], c["tier1.hits"]+c["tier1.misses"])
	v["experiments.env_build_ms"] = ratio(spanMS["experiments.env_build"], ops)
	v["thermal.model_build_ms"] = ratio(spanMS["thermal.model_build"], ops)
	v["thermal.block_solves"] = ratio(c["thermal.block_solve.calls"], ops)
	v["thermal.block_solve_us"] = ratio(1e3*spanMS["thermal.block_solve"], c["thermal.block_solve.calls"])
	v["thermal.grid_build_ms"] = ratio(spanMS["thermal.grid_build"], ops)
	v["thermal.grid_solves"] = ratio(c["thermal.grid_solve.calls"], ops)
	v["thermal.grid_solve_ms"] = ratio(spanMS["thermal.grid_solve"], ops)
	v["linalg.numeric_ms"] = ratio(c["linalg.numeric_ms"], ops)
	v["linalg.pre_numeric_ms"] = ratio(spanMS["thermal.grid_build"]-c["linalg.numeric_ms"], ops)
	v["linalg.factor_nnz"] = ratio(c["linalg.factor_nnz"], c["grid.builds"])
	v["linalg.peak_factor_mb"] = ratio(c["linalg.peak_factor_mb"], c["grid.builds"])
	v["oraclestore.open_ms"] = ratio(spanMS["oraclestore.open"], ops)
	v["oraclestore.records_loaded"] = ratio(c["oraclestore.records_loaded"], ops)
	v["oraclestore.close_ms"] = ratio(spanMS["oraclestore.close"], ops)
	v["oraclestore.lookup_ms"] = ratio(spanMS["oraclestore.lookup"], ops)
	v["oraclestore.tier2_hit_ratio"] = ratio(c["tier2.hits"], c["tier2.hits"]+c["tier2.misses"])
	v["runtime.allocs_per_op"] = ratio(float64(un.mallocs), float64(len(un.lat)))
	v["runtime.gc_pause_ms"] = ratio(float64(un.gcPauseNs)/1e6, float64(len(un.lat)))
}

// firstPassSims is simulations per schedule over the first pass through the
// SoC pool: the same ops on every run of a seed, so the figure repeats
// exactly (every op's count is also checked for repeatability).
func firstPassSims(win window, wc workloadConfig) float64 {
	n := min(wc.PoolSize, len(win.ops))
	var sims, sch int64
	for _, r := range win.ops[:n] {
		sims += r.sims
		sch += int64(r.schedules)
	}
	return ratio(float64(sims), float64(sch))
}

// countTiers records an env's cache counters for the per-layer ratios.
func countTiers(tr *tracer, env *experiments.Env) {
	h, m := env.Oracle.Stats()
	tr.add("tier1.hits", float64(h))
	tr.add("tier1.misses", float64(m))
	if env.StoreCache != nil {
		h, m := env.StoreCache.Stats()
		tr.add("tier2.hits", float64(h))
		tr.add("tier2.misses", float64(m))
		tr.add("oraclestore.records_loaded", float64(env.StoreCache.Loaded()))
	}
}

// table1Sweep: a fresh in-memory block-model system per op, then the
// paper's 9×9 TL×STCL sweep on it, all 81 schedules sharing one tier-1 memo.
type table1Sweep struct {
	wc       workloadConfig
	seed     int64
	cells    []cell
	pool     []*testspec.Spec
	want     [][][32]byte // [SoC][cell]
	wantSims []int64      // simulations per SoC sweep
}

// setup computes the references in a fresh system of their own with phase 1
// run serially, so each op's parallel phase 1 is checked against it.
func (w *table1Sweep) setup() error {
	w.cells = table1Cells()
	pool, err := socPool(w.seed, w.wc.PoolCores, w.wc.PoolSize)
	if err != nil {
		return err
	}
	w.pool, w.want, w.wantSims = pool, make([][][32]byte, len(pool)), make([]int64, len(pool))
	for i, spec := range pool {
		env, err := experiments.NewEnv(spec)
		if err != nil {
			return err
		}
		for _, c := range w.cells {
			res, err := env.Generate(core.Config{TL: c.tl, STCL: c.stcl, Phase1Workers: 1})
			if err != nil {
				return fmt.Errorf("reference SoC %d TL %g STCL %g: %w", i, c.tl, c.stcl, err)
			}
			w.want[i] = append(w.want[i], resultDigest(res, spec))
		}
		_, w.wantSims[i] = env.Oracle.Stats()
	}
	return nil
}

func (w *table1Sweep) op(i int, tr *tracer) (opResult, error) {
	k := i % len(w.pool)
	spec := w.pool[k]
	env, err := newEnv(tr, spec, experiments.EnvOptions{})
	if err != nil {
		return opResult{}, err
	}
	h := sha256.New()
	r := opResult{}
	for j, c := range w.cells {
		res, err := generate(tr, env, c, false)
		if err != nil {
			return r, fmt.Errorf("SoC %d TL %g STCL %g: %w", k, c.tl, c.stcl, err)
		}
		if err := checkResult(res, spec, w.want[k][j]); err != nil {
			return r, fmt.Errorf("SoC %d TL %g STCL %g: %w", k, c.tl, c.stcl, err)
		}
		d := resultDigest(res, spec)
		h.Write(d[:])
		r.schedules++
	}
	countTiers(tr, env)
	_, r.sims = env.Oracle.Stats()
	h.Sum(r.digest[:0])
	if r.sims != w.wantSims[k] {
		return r, fmt.Errorf("SoC %d: %d simulations, reference sweep needed %d", k, r.sims, w.wantSims[k])
	}
	return r, nil
}

func (w *table1Sweep) close() error { return nil }

// gridCold: a fresh system per op validating on a grid-resolution model,
// one schedule with batched validation, so every op pays ordering, symbolic
// and numeric factorization and the batched solves.
type gridCold struct {
	wc       workloadConfig
	seed     int64
	pool     []*testspec.Spec
	want     [][32]byte
	wantSims []int64 // per SoC, set by its first op
}

// gridCell is the operating point grid-cold schedules; AutoRaiseTL keeps a
// SoC whose grid-resolution hot spot exceeds it schedulable.
var gridCell = cell{165, 60}

func (w *gridCold) opts() experiments.EnvOptions {
	return experiments.EnvOptions{GridRes: w.wc.GridRes}
}

// setup computes the references with serial (unbatched) validation straight
// on the grid oracle, so the batched path every op takes is checked against
// the plain one. Batched validation may simulate speculative sessions the
// serial path never asks for, so the simulation count is checked for
// repeatability instead: every op on a SoC must match the first.
func (w *gridCold) setup() error {
	pool, err := socPool(w.seed, w.wc.PoolCores, w.wc.PoolSize)
	if err != nil {
		return err
	}
	w.pool, w.want, w.wantSims = pool, make([][32]byte, len(pool)), make([]int64, len(pool))
	for i, spec := range pool {
		env, err := experiments.NewEnvWithOptions(spec, thermal.DefaultPackageConfig(), w.opts())
		if err != nil {
			return err
		}
		res, err := core.Generate(spec, env.SM, env.Lazy, core.Config{TL: gridCell.tl, STCL: gridCell.stcl,
			AutoRaiseTL: true, Phase1Workers: 1})
		if err != nil {
			return fmt.Errorf("reference SoC %d: %w", i, err)
		}
		w.want[i], w.wantSims[i] = resultDigest(res, spec), -1
	}
	return nil
}

func (w *gridCold) op(i int, tr *tracer) (opResult, error) {
	k := i % len(w.pool)
	spec := w.pool[k]
	env, err := newEnv(tr, spec, w.opts())
	if err != nil {
		return opResult{}, err
	}
	res, err := generate(tr, env, gridCell, true)
	if err != nil {
		return opResult{}, fmt.Errorf("SoC %d: %w", k, err)
	}
	r := opResult{schedules: 1, digest: resultDigest(res, spec)}
	countTiers(tr, env)
	_, r.sims = env.Oracle.Stats()
	if err := checkResult(res, spec, w.want[k]); err != nil {
		return r, fmt.Errorf("SoC %d: %w", k, err)
	}
	if w.wantSims[k] < 0 {
		w.wantSims[k] = r.sims
	}
	if r.sims != w.wantSims[k] {
		return r, fmt.Errorf("SoC %d: %d simulations, an earlier op on it needed %d", k, r.sims, w.wantSims[k])
	}
	return r, nil
}

func (w *gridCold) close() error { return nil }

// warmRestart: set-up fills a store with the pool's sweeps on a
// grid-resolution oracle; each op is one restart — open the store, build a
// fresh system over it, answer a few schedules from tier 2, close.
type warmRestart struct {
	wc    workloadConfig
	seed  int64
	dir   string // parent of the store directories
	store string // the current store directory
	pool  []*testspec.Spec
	want  [][][32]byte // [SoC][cell]
}

// warmCells is the sweep set-up persists per SoC; ops ask for a rotating
// subset of it.
var warmCells = []cell{{155, 40}, {155, 60}, {155, 80}, {165, 40}, {165, 60}, {165, 80}, {175, 40}, {175, 60}, {175, 80}}

func (w *warmRestart) opts(st *oraclestore.Store) experiments.EnvOptions {
	return experiments.EnvOptions{Store: st, GridRes: w.wc.GridRes}
}

// setup populates a fresh store directory; the cold answers it computes are
// the references the warm ops must reproduce.
func (w *warmRestart) setup() error {
	if w.wc.SchedulesPerOp < 1 {
		return fmt.Errorf("schedules_per_op = %d, want >= 1", w.wc.SchedulesPerOp)
	}
	dir, err := os.MkdirTemp(w.dir, "store-")
	if err != nil {
		return err
	}
	w.store = dir
	pool, err := socPool(w.seed, w.wc.PoolCores, w.wc.PoolSize)
	if err != nil {
		return err
	}
	st, err := oraclestore.Open(filepath.Join(dir, "oracle"))
	if err != nil {
		return err
	}
	w.pool, w.want = pool, make([][][32]byte, len(pool))
	for i, spec := range pool {
		env, err := experiments.NewEnvWithOptions(spec, thermal.DefaultPackageConfig(), w.opts(st))
		if err != nil {
			st.Close()
			return err
		}
		for _, c := range warmCells {
			res, err := env.Generate(core.Config{TL: c.tl, STCL: c.stcl, AutoRaiseTL: true})
			if err != nil {
				st.Close()
				return fmt.Errorf("populating SoC %d TL %g STCL %g: %w", i, c.tl, c.stcl, err)
			}
			w.want[i] = append(w.want[i], resultDigest(res, spec))
		}
	}
	return st.Close()
}

func (w *warmRestart) op(i int, tr *tracer) (opResult, error) {
	k := i % len(w.pool)
	spec := w.pool[k]
	// Traced, the open span also loads the SoC's records (Store.System),
	// which the program otherwise does inside NewEnvWithOptions; the
	// store hands that call the loaded cache back.
	ob := tr.begin("oraclestore.open")
	st, err := oraclestore.Open(filepath.Join(w.store, "oracle"))
	var loaded *oraclestore.SystemCache
	if err == nil && tr != nil {
		o := w.opts(st)
		loaded, err = st.System(oraclestore.DescForGrid(spec.Floorplan(), thermal.DefaultPackageConfig(),
			spec.Profile(), o.GridRes, o.GridRes, o.Grid))
		if err != nil {
			st.Close()
		}
	}
	tr.end(ob)
	if err != nil {
		return opResult{}, err
	}
	r, err := w.answer(i, k, spec, st, loaded, tr)
	cb := tr.begin("oraclestore.close")
	cerr := st.Close()
	tr.end(cb)
	if err == nil && cerr != nil {
		err = fmt.Errorf("closing store: %w", cerr)
	}
	return r, err
}

func (w *warmRestart) answer(i, k int, spec *testspec.Spec, st *oraclestore.Store, loaded *oraclestore.SystemCache,
	tr *tracer) (opResult, error) {
	env, err := newEnv(tr, spec, w.opts(st))
	if err != nil {
		return opResult{}, err
	}
	if loaded != nil && env.StoreCache != loaded {
		return opResult{}, fmt.Errorf("SoC %d: the traced open loaded another system's records", k)
	}
	h := sha256.New()
	r := opResult{}
	for s := 0; s < w.wc.SchedulesPerOp; s++ {
		j := (i/len(w.pool)*w.wc.SchedulesPerOp + s) % len(warmCells)
		res, err := generate(tr, env, warmCells[j], true)
		if err != nil {
			return r, fmt.Errorf("SoC %d cell %d: %w", k, j, err)
		}
		if err := checkResult(res, spec, w.want[k][j]); err != nil {
			return r, fmt.Errorf("SoC %d cell %d: %w", k, j, err)
		}
		d := resultDigest(res, spec)
		h.Write(d[:])
		r.schedules++
	}
	h.Sum(r.digest[:0])
	countTiers(tr, env)
	_, r.sims = env.StoreCache.Stats()
	if r.sims != 0 || env.Lazy.Built() {
		return r, fmt.Errorf("SoC %d: warm restart simulated %d sessions (grid built: %v), want 0",
			k, r.sims, env.Lazy.Built())
	}
	return r, nil
}

func (w *warmRestart) close() error {
	if w.store == "" {
		return nil
	}
	dir := w.store
	w.store = ""
	return os.RemoveAll(dir)
}
