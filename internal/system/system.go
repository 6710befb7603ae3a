// Package system assembles one SoC's scheduling system: the full RC thermal
// model, the reduced session model the generator packs against, the
// validation oracle stack and the content address that names it. Every
// producer of a system — the root library facade, the schedule service, the
// experiment harness and the fleet workers — builds it here, so every entry
// point lands on the same persistent-store file for the same physics.
//
// The oracle stack, innermost first: the block-model simulator (or, with
// Options.GridRes, a lazily factored grid-resolution simulator), then the
// persistent store's SystemCache when Options.Store is set, then one
// in-memory CachedOracle.
package system

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/oraclestore"
	"repro/internal/testspec"
	"repro/internal/thermal"
)

// Options selects the optional oracle plumbing of a System.
type Options struct {
	// Store, when non-nil, persists every distinct simulation to disk and
	// answers repeat queries — across processes — without simulating.
	Store *oraclestore.Store
	// GridRes, when > 0, validates sessions on a GridRes×GridRes
	// grid-resolution thermal model instead of the block model.
	GridRes int
	// Grid tunes the grid oracle's solver (ordering, fill budget, factor
	// kernel, panel shape, batch width). The zero value is the canonical
	// default. Only the round-off-relevant fields (Ordering, FillBudget)
	// enter the content address — factor-kernel choices are bit-identical,
	// so cached results stay shared across them.
	Grid thermal.GridOptions
}

// Desc returns the content-addressable identity of the validation oracle New
// builds for the same arguments, without building anything. It is the one
// derivation of a system's store address; opts.Store is ignored.
func Desc(spec *testspec.Spec, cfg thermal.PackageConfig, opts Options) oraclestore.SystemDesc {
	if n := opts.GridRes; n > 0 {
		return oraclestore.DescForGrid(spec.Floorplan(), cfg, spec.Profile(), n, n, opts.Grid)
	}
	return oraclestore.DescForBlockModel(spec.Floorplan(), cfg, spec.Profile())
}

// System bundles the objects one SoC is scheduled with. All oracle traffic
// goes through one memo, which collapses repeated session queries (each cell
// of a Table 1 sweep repeats the same phase-1 solo simulations) and makes the
// System safe to share across goroutines.
type System struct {
	Spec  *testspec.Spec
	Model *thermal.Model
	SM    *core.SessionModel
	// Sim is the raw, uncached block-model simulation oracle.
	Sim *core.SimOracle
	// Oracle memoizes all validation-oracle traffic.
	Oracle *core.CachedOracle
	// StoreCache is the persistent tier under Oracle, nil without a store.
	StoreCache *oraclestore.SystemCache
	// Lazy is the deferred grid-oracle builder, nil when the validation
	// oracle is the (eagerly built) block simulator. Lazy.Built() reports
	// whether any query actually paid the grid factorization — false on a
	// fully warm run.
	Lazy *core.LazyOracle
	// StoreDesc is Desc of this System's arguments: the inputs the
	// persistent store hashes into a file name. It is populated whether or
	// not a store is attached, so callers can key live systems by
	// StoreDesc.Key().
	StoreDesc oraclestore.SystemDesc
	// GridRes is the validation-oracle grid resolution, 0 for block-model.
	GridRes int
}

// New builds the system for spec under the package cfg.
func New(spec *testspec.Spec, cfg thermal.PackageConfig, opts Options) (*System, error) {
	m, err := thermal.NewModel(spec.Floorplan(), cfg)
	if err != nil {
		return nil, fmt.Errorf("system: building thermal model: %w", err)
	}
	sm, err := core.NewSessionModel(m, spec.Profile(), 0)
	if err != nil {
		return nil, fmt.Errorf("system: building session model: %w", err)
	}
	sim := core.NewSimOracle(m, spec.Profile())
	s := &System{
		Spec:      spec,
		Model:     m,
		SM:        sm,
		Sim:       sim,
		StoreDesc: Desc(spec, cfg, opts),
		GridRes:   opts.GridRes,
	}

	// The innermost oracle: the block simulator, or a grid-resolution
	// simulator whose factorization is deferred to the first query — even
	// without a store, so a fleet's system-construction loop stays cheap and
	// the factorizations happen inside the pooled cell tasks.
	var inner core.Oracle = sim
	if n, gopts := opts.GridRes, opts.Grid; n > 0 {
		s.Lazy = core.NewLazyOracle(func() (core.Oracle, error) {
			gm, err := thermal.NewGridModelWithOptions(spec.Floorplan(), cfg, n, n, gopts)
			if err != nil {
				return nil, fmt.Errorf("system: building %d×%d grid oracle: %w", n, n, err)
			}
			return core.NewGridOracle(gm, spec.Profile()), nil
		})
		inner = s.Lazy
	}

	if opts.Store != nil {
		sc, err := opts.Store.System(s.StoreDesc)
		if err != nil {
			return nil, fmt.Errorf("system: opening oracle store: %w", err)
		}
		s.StoreCache = sc
		inner = sc.Wrap(inner)
	}
	s.Oracle = core.NewCachedOracle(inner)
	return s, nil
}

// Generate runs the paper's generator against the memoized oracle.
// Grid-resolution validation is simulation-dominated, so it routes phase 1
// and the phase-2 candidate chain through the oracle's batched multi-RHS path
// (results are byte-identical to per-candidate validation).
func (s *System) Generate(cfg core.Config) (*core.Result, error) {
	if s.GridRes > 0 {
		cfg.BatchValidate = true
	}
	return core.Generate(s.Spec, s.SM, s.Oracle, cfg)
}

// GenerateContext is Generate with a cancellation point: the generator polls
// ctx between candidate simulations and aborts with an error wrapping
// core.ErrInterrupted and ctx.Err() once the context ends. Everything
// simulated before the abort stays memoized and persisted.
func (s *System) GenerateContext(ctx context.Context, cfg core.Config) (*core.Result, error) {
	cfg.Interrupt = ctx.Err
	return s.Generate(cfg)
}

// GridFactorStats returns the factor statistics of the grid oracle, when this
// System validates on one AND some query has already paid its construction.
// It never forces the lazy build, so metrics exporters can poll it freely.
func (s *System) GridFactorStats() (thermal.GridFactorStats, bool) {
	if s.Lazy == nil {
		return thermal.GridFactorStats{}, false
	}
	if gro, ok := s.Lazy.Inner().(*core.GridOracle); ok {
		return gro.Grid().FactorStats(), true
	}
	return thermal.GridFactorStats{}, false
}
