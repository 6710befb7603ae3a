package experiments

import (
	"fmt"
	"testing"

	"repro/internal/testspec"
	"repro/internal/thermal"
)

// TestGoldenContentAddresses pins the persistent-store content address of
// every builtin workload's validation oracle: the block model plus the 48×48
// and 128×128 grids under default options. A change to SystemDesc.Key, the
// floorplan's canonical form, GridOptions.Canonical or the system assembly
// that moves one of these keys would silently cold-start every deployed store
// and remote node; it has to show up here first.
func TestGoldenContentAddresses(t *testing.T) {
	golden := []struct {
		spec    *testspec.Spec
		gridRes int
		key     string
	}{
		{testspec.Alpha21364(), 0, "02e4c73da8d98048efcbecaeb440810b27510ed9b0877730fdec83ab11c1d1e0"},
		{testspec.Alpha21364(), 48, "6a4eb0ca13e79dd351a58e3ea20ae44ecca58e7b352ccc824478b66acd75e31b"},
		{testspec.Alpha21364(), 128, "f8e18939a9260da04fe5238fb2635426f26cf68f265f1218f34afeafb420f8a2"},
		{testspec.Figure1(), 0, "175bd841412e9b0c4b0929427c92c16486c51068b19c5ad4e6bb52826adebcb2"},
		{testspec.Figure1(), 48, "ebe34e34dd4535c5152a7e01542e3feba7d7ba75cf829eeaa981f32004fe174d"},
		{testspec.Figure1(), 128, "f7dbd25fc5807f5ef43357bc6298004c926952916b086ae4fae1748ee4f873d4"},
	}
	for _, g := range golden {
		t.Run(fmt.Sprintf("%s/grid%d", g.spec.Name(), g.gridRes), func(t *testing.T) {
			env, err := NewEnvWithOptions(g.spec, thermal.DefaultPackageConfig(), EnvOptions{GridRes: g.gridRes})
			if err != nil {
				t.Fatal(err)
			}
			key, err := env.StoreDesc.Key()
			if err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprintf("%x", key); got != g.key {
				t.Errorf("content address %s, want %s", got, g.key)
			}
		})
	}
}
