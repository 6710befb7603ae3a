package main

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"strconv"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/schedule"
	"repro/internal/testspec"
	"repro/internal/thermal"
)

// cell is one (TL, STCL) operating point.
type cell struct{ tl, stcl float64 }

// table1Cells is the paper's 9×9 Table 1 / Figure 5 grid.
func table1Cells() []cell {
	var out []cell
	for _, tl := range experiments.Table1TLs {
		for _, stcl := range experiments.STCLs {
			out = append(out, cell{tl, stcl})
		}
	}
	return out
}

// socPool draws n random SoCs of one core count from seed. Every SoC in a
// pool has the same size, so op times stay unimodal.
func socPool(seed int64, cores, n int) ([]*testspec.Spec, error) {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*testspec.Spec, n)
	for i := range out {
		spec, err := experiments.ScalingSpec(cores, rng.Int63n(1<<40))
		if err != nil {
			return nil, fmt.Errorf("pool SoC %d: %w", i, err)
		}
		out[i] = spec
	}
	return out, nil
}

// digest fingerprints everything a schedule request answers: the session
// partition in the text format plus the exact (bit-level) figures.
func digest(scheduleText string, length, effort, maxTemp float64, attempts, violations int) [32]byte {
	h := sha256.New()
	fmt.Fprintf(h, "%s|%s|%s|%s|%d|%d", scheduleText,
		strconv.FormatFloat(length, 'x', -1, 64), strconv.FormatFloat(effort, 'x', -1, 64),
		strconv.FormatFloat(maxTemp, 'x', -1, 64), attempts, violations)
	var d [32]byte
	h.Sum(d[:0])
	return d
}

func resultDigest(res *core.Result, spec *testspec.Spec) [32]byte {
	return digest(schedule.Format(res.Schedule, spec), res.Length, res.Effort, res.MaxTemp,
		res.Attempts, res.Violations)
}

// checkResult verifies one generated schedule against its reference digest
// and the thermal-safety promise.
func checkResult(res *core.Result, spec *testspec.Spec, want [32]byte) error {
	if !(res.MaxTemp < res.EffectiveTL) {
		return fmt.Errorf("max temp %.3f °C is not below TL %.3f °C", res.MaxTemp, res.EffectiveTL)
	}
	if got := resultDigest(res, spec); got != want {
		return fmt.Errorf("schedule digest %x differs from reference %x", got[:6], want[:6])
	}
	return nil
}

// newEnv builds a scheduling system for spec with the program's own
// assembly, experiments.NewEnvWithOptions. Traced, that call is the
// experiments.env_build span; afterwards the oracle stack is rebuilt over
// span wrappers (cheap, as nothing has been queried yet), and the thermal
// models are built once more in a probe that times that layer alone. The
// traced and untraced schedules are checked to be byte-identical.
func newEnv(tr *tracer, spec *testspec.Spec, opts experiments.EnvOptions) (*experiments.Env, error) {
	cfg := thermal.DefaultPackageConfig()
	if tr == nil {
		return experiments.NewEnvWithOptions(spec, cfg, opts)
	}
	build := tr.begin("experiments.env_build")
	env, err := experiments.NewEnvWithOptions(spec, cfg, opts)
	tr.end(build)
	if err != nil {
		return nil, err
	}
	err = tr.probe("thermal.model_build", func() error {
		m, err := thermal.NewModel(spec.Floorplan(), cfg)
		if err == nil {
			_, err = core.NewSessionModel(m, spec.Profile(), 0)
		}
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("building models: %w", err)
	}
	inner := traceOracle(tr, "thermal.block_solve", env.Sim)
	if n := opts.GridRes; n > 0 {
		env.Lazy = core.NewLazyOracle(func() (core.Oracle, error) {
			gb := tr.begin("thermal.grid_build")
			gm, err := thermal.NewGridModelWithOptions(spec.Floorplan(), cfg, n, n, opts.Grid)
			tr.end(gb)
			if err != nil {
				return nil, fmt.Errorf("building %d×%d grid oracle: %w", n, n, err)
			}
			fs := gm.FactorStats()
			tr.add("linalg.numeric_ms", fs.FactorTime.Seconds()*1e3)
			tr.add("linalg.factor_nnz", float64(fs.FactorNNZ))
			tr.add("linalg.peak_factor_mb", float64(fs.PeakFactorBytes)/(1<<20))
			tr.add("grid.builds", 1)
			return traceOracle(tr, "thermal.grid_solve", core.NewGridOracle(gm, spec.Profile())), nil
		})
		inner = env.Lazy
	}
	if env.StoreCache != nil {
		inner = traceOracle(tr, "oraclestore.lookup", env.StoreCache.Wrap(inner).(core.BatchOracle))
	}
	env.Oracle = core.NewCachedOracle(inner)
	return env, nil
}

// generate runs one schedule in env under a core.generate span.
func generate(tr *tracer, env *experiments.Env, c cell, autoRaise bool) (*core.Result, error) {
	g := tr.beginParent("core.generate")
	res, err := env.Generate(core.Config{TL: c.tl, STCL: c.stcl, AutoRaiseTL: autoRaise})
	tr.end(g)
	if err == nil {
		tr.add("core.attempts", float64(res.Attempts))
		tr.add("core.violations", float64(res.Violations))
	}
	return res, err
}
