package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/core"
)

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	sorted := make([]float64, 100)
	for i := range sorted {
		sorted[i] = float64(i + 1)
	}
	if v, err := tail(sorted, 90); err != nil || v != 90 {
		t.Fatalf("p90 of 1..100 = %v, %v; want 90 with 10 beyond", v, err)
	}
	if _, err := tail(sorted, 95); err == nil {
		t.Fatal("p95 of 100 samples has 5 beyond it; want an error")
	}
	// Ties at the percentile do not count as beyond it.
	tied := append(make([]float64, 95), 1, 1, 1, 1, 1)
	sort.Float64s(tied)
	if _, beyond := percentile(tied, 50); beyond != 5 {
		t.Fatalf("beyond = %d, want 5 (ties excluded)", beyond)
	}
	if _, err := tail(nil, 99); err == nil {
		t.Fatal("tail of no samples: want an error")
	}
}

func TestArrivalScheduleIsSeeded(t *testing.T) {
	const n, d = 500, 10 * time.Second
	a := arrivals(rand.New(rand.NewSource(7)), n, d)
	b := arrivals(rand.New(rand.NewSource(7)), n, d)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different arrival schedules")
	}
	if reflect.DeepEqual(a, arrivals(rand.New(rand.NewSource(8)), n, d)) {
		t.Fatal("different seeds gave the same arrival schedule")
	}
	if len(a) != n || !sort.SliceIsSorted(a, func(i, j int) bool { return a[i] < a[j] }) || a[0] < 0 || a[n-1] >= d {
		t.Fatalf("want %d sorted due times in [0, %s)", n, d)
	}
	k1 := kinds(rand.New(rand.NewSource(7)), n, 0.05, 0.10)
	k2 := kinds(rand.New(rand.NewSource(7)), n, 0.05, 0.10)
	if !reflect.DeepEqual(k1, k2) {
		t.Fatal("same seed gave different request mixes")
	}
	count := map[reqKind]int{}
	for _, k := range k1 {
		count[k]++
	}
	if count[coldReq] != 25 || count[jobReq] != 50 || count[warmReq] != 425 {
		t.Fatalf("mix %v, want exactly 25 cold, 50 job, 425 warm", count)
	}
}

func TestMetricNamesValidate(t *testing.T) {
	for _, list := range [][]metric{endToEnd, perLayer} {
		if err := validateMetrics(list); err != nil {
			t.Fatal(err)
		}
	}
	for _, bad := range [][]metric{
		{{"_leading", "ms"}},
		{{"has space", "ms"}},
		{{"ok", "unit with space"}},
		{{"ok", "much-too-long-unit"}},
		{{"dup", "ms"}, {"dup", "s"}},
	} {
		if err := validateMetrics(bad); err == nil {
			t.Errorf("%v: want a validation error", bad)
		}
	}
	if _, err := report(endToEnd, map[string]float64{"setup_s": 1}, 1, 0); err == nil {
		t.Error("report with metrics missing: want an error")
	}
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json, config.json and the
// metric lists the program prints in step.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	cfg, err := parseConfig(configJSON)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
		if _, ok := cfg.Workloads[w.Name]; !ok {
			t.Errorf("workload %s has no parameters in config.json", w.Name)
		}
	}
	if !reflect.DeepEqual(names, workloadNames) || len(cfg.Workloads) != len(names) {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v, config has %d", names, workloadNames, len(cfg.Workloads))
	}
	for _, c := range []struct {
		json []struct{ Name, Unit string }
		code []metric
	}{{b.EndToEnd, endToEnd}, {b.PerLayer, perLayer}} {
		if len(c.json) != len(c.code) {
			t.Fatalf("BENCHMARK.json lists %d metrics, the program %d", len(c.json), len(c.code))
		}
		for i, m := range c.json {
			if m.Name != c.code[i].name || m.Unit != c.code[i].unit {
				t.Errorf("metric %d: BENCHMARK.json %s [%s], program %s [%s]", i, m.Name, m.Unit, c.code[i].name, c.code[i].unit)
			}
		}
	}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	tr := &tracer{spans: []span{
		{name: "core.generate", start: 0, end: 100, parent: -1},
		{name: "thermal.block_solve", start: 10, end: 30, parent: 0},
		{name: "thermal.block_solve", start: 20, end: 40, parent: 0}, // overlaps the first
		{name: "thermal.block_solve", start: 90, end: 120, parent: 0},
	}}
	// Children cover [10, 40) and [90, 100) of the 100 ns span.
	if got := tr.selfTime("core.generate"); got != 60.0/1e6 {
		t.Fatalf("self time %v ms, want %v ms", got, 60.0/1e6)
	}
}

// batchRecorder is a fake oracle that records which path was used.
type batchRecorder struct{ single, batch int }

func (b *batchRecorder) BlockTemps(active []int) ([]float64, error) {
	b.single++
	return []float64{0}, nil
}

func (b *batchRecorder) BlockTempsBatch(s [][]int) ([][]float64, error) {
	b.batch++
	return make([][]float64, len(s)), nil
}

func TestSpanOracleForwardsBatches(t *testing.T) {
	inner := &batchRecorder{}
	tr := newTracer()
	o, ok := traceOracle(tr, "x", inner).(core.BatchOracle)
	if !ok {
		t.Fatal("traced oracle does not implement core.BatchOracle")
	}
	if _, err := o.BlockTempsBatch([][]int{{0}, {1}, {2}}); err != nil {
		t.Fatal(err)
	}
	if inner.batch != 1 || inner.single != 0 {
		t.Fatalf("inner saw %d batch and %d single calls, want one batch", inner.batch, inner.single)
	}
	if tr.counts["x.calls"] != 3 || len(tr.spans) != 1 {
		t.Fatalf("counted %v entries in %d spans, want 3 in 1", tr.counts["x.calls"], len(tr.spans))
	}
	if traceOracle(nil, "x", inner) != core.Oracle(inner) {
		t.Fatal("untraced runs must get the oracle itself")
	}
}
