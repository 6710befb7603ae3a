package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"regexp"
	"strconv"
	"strings"
)

// metric is one reported figure: its name and unit as BENCHMARK.json lists
// them.
type metric struct{ name, unit string }

// endToEnd are the figures a user of the system sees, measured with tracing
// off. Every workload reports every one of them.
var endToEnd = []metric{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"op_tail_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the traced run's figures. Each is measured by the benchmark
// around calls into one layer's public functions, or read from what the
// layer itself reports (core.Result, cache Stats, GridFactorStats, the
// service's response timing and /metrics counters). A layer a workload never
// reaches reads 0 there.
var perLayer = []metric{
	{"trace.untraced_p50_ms", "ms"},
	{"trace.traced_p50_ms", "ms"},
	{"trace.overhead_pct", "%"},
	{"core.generate_ms", "ms/schedule"},
	{"core.self_ms", "ms/schedule"},
	{"core.sims_per_schedule", "count"},
	{"core.oracle_queries", "count/schedule"},
	{"core.attempts", "count/schedule"},
	{"core.violations", "count/schedule"},
	{"core.tier1_hit_ratio", "ratio"},
	{"experiments.env_build_ms", "ms/op"},
	{"thermal.model_build_ms", "ms/op"},
	{"thermal.block_solves", "count/op"},
	{"thermal.block_solve_us", "us/solve"},
	{"thermal.grid_build_ms", "ms/op"},
	{"thermal.grid_solves", "count/op"},
	{"thermal.grid_solve_ms", "ms/op"},
	{"linalg.numeric_ms", "ms/op"},
	{"linalg.pre_numeric_ms", "ms/op"},
	{"linalg.factor_nnz", "count"},
	{"linalg.peak_factor_mb", "MB"},
	{"oraclestore.open_ms", "ms/op"},
	{"oraclestore.records_loaded", "count/op"},
	{"oraclestore.close_ms", "ms/op"},
	{"oraclestore.lookup_ms", "ms/op"},
	{"oraclestore.tier2_hit_ratio", "ratio"},
	{"oraclestore.appended_kb", "KB/cold"},
	{"server.self_ms", "ms/request"},
	{"server.wire_ms", "ms/request"},
	{"conc.queue_p50_ms", "ms"},
	{"conc.queue_p99_ms", "ms"},
	{"jobs.submit_ms", "ms"},
	{"jobs.done_ms", "ms"},
	{"server.shed", "count"},
	{"server.errors", "count"},
	{"runtime.allocs_per_op", "count/op"},
	{"runtime.gc_pause_ms", "ms/op"},
	{"loadgen.late_p50_ms", "ms"},
	{"loadgen.late_p99_ms", "ms"},
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// validateMetrics checks that names and units have the allowed shape and
// that no name repeats.
func validateMetrics(ms []metric) error {
	seen := make(map[string]bool)
	for _, m := range ms {
		if !nameRE.MatchString(m.name) {
			return fmt.Errorf("metric name %q: want a letter or digit, then at most 63 of [A-Za-z0-9_.-]", m.name)
		}
		if !unitRE.MatchString(m.unit) {
			return fmt.Errorf("metric %s: unit %q: want 1-16 of [A-Za-z0-9_/%%.-]", m.name, m.unit)
		}
		if seen[m.name] {
			return fmt.Errorf("metric name %q repeats", m.name)
		}
		seen[m.name] = true
	}
	return nil
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report assembles the result, requiring a value for every listed metric.
func report(list []metric, values map[string]float64, attempted, failed int) (result, error) {
	r := result{Correct: failed == 0, Attempted: attempted, Failed: failed,
		Metrics: make(map[string]metricValue, len(list))}
	for _, m := range list {
		v, ok := values[m.name]
		if !ok {
			return r, fmt.Errorf("metric %s was not measured", m.name)
		}
		r.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
	}
	return r, nil
}

// printResult writes a human-readable line per metric, then the result as
// one JSON line.
func printResult(w io.Writer, list []metric, r result) error {
	for _, m := range list {
		fmt.Fprintf(w, "# %-30s %14s %s\n", m.name, strconv.FormatFloat(r.Metrics[m.name].Value, 'g', 6, 64), m.unit)
	}
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM), which
// only ever grows, so no sampling can miss the peak.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}
