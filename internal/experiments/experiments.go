// Package experiments regenerates every figure and table of the DATE'05
// evaluation plus the ablations listed in DESIGN.md. Each experiment returns
// a structured result with a text renderer, so the same code backs the
// cmd/experiments CLI, the root-level benchmarks and the integration tests.
//
// Absolute temperatures depend on the reconstructed package and workload
// (see DESIGN.md §3), so the results are compared with the paper in *shape*:
// orderings, monotone trends, crossovers and ratios.
package experiments

import (
	"repro/internal/core"
	"repro/internal/system"
	"repro/internal/testspec"
	"repro/internal/thermal"
)

// Env is one workload's system (see internal/system) plus the harness's
// sweep setting. Its fields, GenerateContext and GridFactorStats are the
// System's; Generate applies the sweep setting first.
type Env struct {
	*system.System
	// Parallel fans experiment sweeps across GOMAXPROCS goroutines. Serial
	// and parallel runs render byte-identical tables.
	Parallel bool
}

// EnvOptions selects the optional oracle plumbing of an Env.
type EnvOptions = system.Options

// NewEnv builds the environment for a spec under the default package.
func NewEnv(spec *testspec.Spec) (*Env, error) {
	return NewEnvWithOptions(spec, thermal.DefaultPackageConfig(), EnvOptions{})
}

// NewEnvWithOptions builds the environment with an explicit package config
// and the optional persistent-store / grid-oracle plumbing.
func NewEnvWithOptions(spec *testspec.Spec, cfg thermal.PackageConfig, opts EnvOptions) (*Env, error) {
	sys, err := system.New(spec, cfg, opts)
	if err != nil {
		return nil, err
	}
	return &Env{System: sys}, nil
}

// AlphaEnv is the canonical evaluation environment (15-core Alpha 21364).
func AlphaEnv() (*Env, error) { return NewEnv(testspec.Alpha21364()) }

// Figure1Env is the motivational 7-core SoC environment.
func Figure1Env() (*Env, error) { return NewEnv(testspec.Figure1()) }

// Generate runs the thermal-aware generator in this environment with the
// shared memoized oracle.
func (e *Env) Generate(cfg core.Config) (*core.Result, error) {
	return e.System.Generate(e.sweepConfig(cfg))
}

// sweepConfig adapts a generator config to the sweep setting: during a
// parallel sweep the grid cells already occupy every core, so each cell's
// generator runs its phase 1 serially instead of stacking a second level of
// fan-out on top (results are identical at any worker count).
func (e *Env) sweepConfig(cfg core.Config) core.Config {
	if e.Parallel && cfg.Phase1Workers == 0 {
		cfg.Phase1Workers = 1
	}
	return cfg
}

// The paper's parameter grids.
var (
	// Table1TLs are the temperature limits of Table 1 (°C).
	Table1TLs = []float64{145, 150, 155, 160, 165, 170, 175, 180, 185}
	// Figure5TLs are the three limits plotted in Figure 5 (°C).
	Figure5TLs = []float64{145, 155, 165}
	// STCLs is the session-thermal-characteristic-limit sweep shared by
	// Figure 5 and Table 1.
	STCLs = []float64{20, 30, 40, 50, 60, 70, 80, 90, 100}
)
