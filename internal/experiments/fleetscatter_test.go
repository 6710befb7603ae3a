package experiments

import (
	"encoding/json"
	"net/http/httptest"
	"testing"

	"repro/internal/oraclestore"
	"repro/internal/oraclestore/remote"
	"repro/internal/testspec"
	"repro/internal/thermal"
)

// scatterCluster is a 2-node sharded store plus helpers to mint workers
// bound to it, all in-process.
type scatterCluster struct {
	t     *testing.T
	nodes []*httptest.Server
}

func newScatterCluster(t *testing.T, n int) *scatterCluster {
	t.Helper()
	cl := &scatterCluster{t: t}
	for i := 0; i < n; i++ {
		node, err := remote.NewNode(t.TempDir(), t.Logf)
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(node.Handler())
		t.Cleanup(srv.Close)
		cl.nodes = append(cl.nodes, srv)
	}
	return cl
}

func (cl *scatterCluster) addrs() []string {
	out := make([]string, len(cl.nodes))
	for i, n := range cl.nodes {
		out[i] = n.URL
	}
	return out
}

// worker mints one fleet worker with a fresh local store backed by the
// cluster, returning its URL and store (for tier-3 assertions).
func (cl *scatterCluster) worker() (string, *oraclestore.Store) {
	cl.t.Helper()
	c, err := remote.NewClient(cl.addrs(), remote.ClientOptions{})
	if err != nil {
		cl.t.Fatal(err)
	}
	st, err := oraclestore.OpenWithOptions(cl.t.TempDir(), oraclestore.StoreOptions{Remote: c})
	if err != nil {
		cl.t.Fatal(err)
	}
	cl.t.Cleanup(func() { st.Close() })
	fw := &FleetWorker{Store: st, Logf: cl.t.Logf}
	ws := httptest.NewServer(fw.Handler())
	cl.t.Cleanup(ws.Close)
	return ws.URL, st
}

// TestScatteredShardedByteIdentical is the distributed tier's acceptance
// test: a 4-floorplan fleet sweep scattered across 2 worker processes whose
// stores shard over a 2-node cluster renders byte-identically to the
// single-process, single-store run — cold and warm — with the warm pass
// answered by the cluster (tier-3 fetch hits) instead of recomputation. Runs
// under -race in CI ("sharded store identity" step).
func TestScatteredShardedByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("4-scenario scattered fleet in -short mode")
	}
	scens, err := DefaultFleet(4, 7)
	if err != nil {
		t.Fatal(err)
	}
	tls, stcls := []float64{165}, []float64{60}
	fleet := func(st *oraclestore.Store) *Fleet {
		return &Fleet{Scenarios: scens, TLs: tls, STCLs: stcls, Store: st}
	}

	// Single-node baseline: one process, one local store, cold then warm.
	dir := t.TempDir()
	st, err := oraclestore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	coldBase, err := fleet(st).Run()
	if err != nil {
		t.Fatal(err)
	}
	st.Close()
	st2, err := oraclestore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	warmBase, err := fleet(st2).Run()
	if err != nil {
		t.Fatal(err)
	}
	st2.Close()

	// Cold scattered pass: 2 workers, each a fresh store sharded over the
	// 2-node cluster. Everything recomputes, so the render (schedules and
	// every counter column) must match the cold single-node run exactly.
	cl := newScatterCluster(t, 2)
	w1, st1 := cl.worker()
	w2, st2b := cl.worker()
	coldScat, err := fleet(nil).RunScattered([]string{w1, w2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := coldScat.Render(), coldBase.Render(); got != want {
		t.Errorf("cold scattered render differs from single-node:\n--- single-node ---\n%s--- scattered ---\n%s", want, got)
	}
	if st1.RemoteStats().PushedFiles+st2b.RemoteStats().PushedFiles == 0 {
		t.Error("cold scattered sweep pushed nothing to the cluster")
	}

	// Warm scattered pass: fresh workers (cold local disks) against the now
	// warm cluster. The combined store warms them: same render as the warm
	// single-node run, with the answers arriving via tier-3 fetches.
	w3, st3 := cl.worker()
	w4, st4 := cl.worker()
	warmScat, err := fleet(nil).RunScattered([]string{w3, w4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := warmScat.Render(), warmBase.Render(); got != want {
		t.Errorf("warm scattered render differs from warm single-node:\n--- single-node ---\n%s--- scattered ---\n%s", want, got)
	}
	if hits := st3.RemoteStats().FetchHits + st4.RemoteStats().FetchHits; hits == 0 {
		t.Error("warm scattered sweep had no tier-3 fetch hits")
	}

	// Kill one store node: fresh workers degrade to local-only for its key
	// range — the sweep completes with identical schedules and no request
	// errors, just colder caches.
	cl.nodes[0].Close()
	w5, _ := cl.worker()
	w6, _ := cl.worker()
	degraded, err := fleet(nil).RunScattered([]string{w5, w6}, nil)
	if err != nil {
		t.Fatalf("sweep errored with one store node dead: %v", err)
	}
	for i := range degraded.Scenarios {
		got, want := degraded.Scenarios[i], coldBase.Scenarios[i]
		for j := range got.Rows {
			if got.Rows[j] != want.Rows[j] {
				t.Errorf("%s cell %d under dead node: row %+v != %+v", got.Name, j, got.Rows[j], want.Rows[j])
			}
		}
	}
}

// TestWorkRequestSpecRoundTrip: the wire format rebuilds a bit-identical
// problem instance — floorplan text and power vectors survive JSON exactly,
// proven by the content address (which hashes every coordinate and power
// value) coming out unchanged. Without this property the scattered workers
// would shard to different store keys than the coordinator and the warm
// guarantee would silently evaporate.
func TestWorkRequestSpecRoundTrip(t *testing.T) {
	scens, err := DefaultFleet(4, 7)
	if err != nil {
		t.Fatal(err)
	}
	f := &Fleet{Scenarios: scens}
	pkg := thermal.DefaultPackageConfig()
	for si, sc := range scens {
		wr := f.workRequest(si, FleetTLs, FleetSTCLs, pkg)
		// Through the wire: JSON out and back, as RunScattered ships it.
		blob, err := json.Marshal(wr)
		if err != nil {
			t.Fatal(err)
		}
		var back FleetWorkRequest
		if err := json.Unmarshal(blob, &back); err != nil {
			t.Fatal(err)
		}
		rebuilt, err := back.Spec()
		if err != nil {
			t.Fatalf("%s: %v", sc.Name, err)
		}
		want := specKey(t, sc.Spec, pkg)
		got := specKey(t, rebuilt, pkg)
		if got != want {
			t.Errorf("%s: rebuilt spec hashes to %x, original %x — wire format is not bit-exact", sc.Name, got[:8], want[:8])
		}
	}
}

func specKey(t *testing.T, spec *testspec.Spec, pkg thermal.PackageConfig) [32]byte {
	t.Helper()
	key, err := oraclestore.DescForBlockModel(spec.Floorplan(), pkg, spec.Profile()).Key()
	if err != nil {
		t.Fatal(err)
	}
	return key
}
