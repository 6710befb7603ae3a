// Command perfbench is the repository's end-to-end benchmark. It drives the
// program only through the public functions of its layers (experiments,
// core, thermal, linalg, oraclestore, server, jobs) on seeded inputs, checks
// every schedule it gets back, and prints one JSON result line. From the
// root of the repository:
//
//	bash perfbench/run.sh --workload table1-sweep --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs an untraced and a
// traced window (taking turns, pass by pass, on the closed loops) and reports
// the per-layer metrics plus the tracing overhead. --workload all runs every
// workload, each in its own process.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// serveMixedName is the one open-loop workload.
const serveMixedName = "serve-mixed"

// workloadNames fixes the order --workload all runs them in.
var workloadNames = []string{"table1-sweep", "grid-cold", "warm-restart", serveMixedName}

type options struct {
	workload string
	seed     int64
	window   time.Duration
	trace    bool
	workdir  string // per-run scratch (stores, journals), removed at exit
	spanDir  string // where a traced run writes its spans
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload name, or all")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are drawn from")
	seconds := fs.Float64("seconds", 10, "length of the timed window")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	workdir := fs.String("workdir", ".bench_build/work", "scratch directory root")
	spanDir := fs.String("spans", ".bench_build/spans", "directory traced runs write spans to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	if !(*seconds > 0) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be > 0")
		return 2
	}
	cfg, err := parseConfig(configJSON)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if *workload == "all" {
		return runAll(args, stdout, stderr)
	}
	wc, ok := cfg.Workloads[*workload]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s, or all)\n",
			*workload, strings.Join(workloadNames, ", "))
		return 2
	}
	o := options{workload: *workload, seed: *seed, window: time.Duration(*seconds * float64(time.Second)),
		trace: *trace == 1, spanDir: *spanDir}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench: scratch directory:", err)
		return 1
	}
	o.workdir, err = os.MkdirTemp(*workdir, *workload+"-")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench: scratch directory:", err)
		return 1
	}
	defer os.RemoveAll(o.workdir)

	fmt.Fprintf(stdout, "# workload %s seed %d window %s trace %v | nproc %d GOMAXPROCS %d %s | %+v\n",
		o.workload, o.seed, o.window, o.trace, runtime.NumCPU(), runtime.GOMAXPROCS(0),
		runtime.Version(), wc)
	list := endToEnd
	if o.trace {
		list = perLayer
	}
	if err := validateMetrics(list); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	values, attempted, failed, err := runWorkload(wc, o, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	res, err := report(list, values, attempted, failed)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := printResult(stdout, list, res); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if !res.Correct {
		fmt.Fprintf(stderr, "perfbench: %s: %d of %d ops failed their output checks\n", o.workload, failed, attempted)
		return 1
	}
	return 0
}

// runWorkload dispatches on the workload's name.
func runWorkload(wc workloadConfig, o options, log io.Writer) (map[string]float64, int, int, error) {
	var w closedWorkload
	switch o.workload {
	case serveMixedName:
		return runOpen(newServeMixed(wc, o), wc, o, log)
	case "table1-sweep":
		w = &table1Sweep{wc: wc, seed: o.seed}
	case "grid-cold":
		w = &gridCold{wc: wc, seed: o.seed}
	case "warm-restart":
		w = &warmRestart{wc: wc, seed: o.seed, dir: o.workdir}
	default:
		return nil, 0, 0, fmt.Errorf("no implementation")
	}
	return runClosed(w, wc, o, log)
}

// runAll runs every workload in a child process of its own, so none
// inherits another's heap, caches or goroutines, and prints each child's
// result line followed by a combined one.
func runAll(args []string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	combined := result{Correct: true, Metrics: map[string]metricValue{}}
	code := 0
	for _, name := range workloadNames {
		childArgs := append(withoutWorkload(args), "--workload", name)
		cmd := exec.Command(self, childArgs...)
		cmd.Stderr = stderr
		out, err := cmd.Output()
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: workload %s: %v\n", name, err)
			code = 1
		}
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		for _, l := range lines[:len(lines)-1] {
			fmt.Fprintln(stdout, l)
		}
		var r result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
			fmt.Fprintf(stderr, "perfbench: workload %s printed no result\n", name)
			combined.Correct = false
			continue
		}
		fmt.Fprintf(stdout, "# %s %s\n", name, lines[len(lines)-1])
		combined.Correct = combined.Correct && r.Correct
		combined.Attempted += r.Attempted
		combined.Failed += r.Failed
		for k, v := range r.Metrics {
			combined.Metrics[name+"/"+k] = v
		}
	}
	b, _ := json.Marshal(combined)
	fmt.Fprintf(stdout, "%s\n", b)
	if !combined.Correct {
		code = 1
	}
	return code
}

// withoutWorkload drops --workload from args, in either flag form.
func withoutWorkload(args []string) []string {
	var out []string
	for i := 0; i < len(args); i++ {
		a := strings.TrimLeft(args[i], "-")
		switch {
		case a == "workload":
			i++
		case strings.HasPrefix(a, "workload="):
		default:
			out = append(out, args[i])
		}
	}
	return out
}

// spanPath names a traced run's span file.
func spanPath(o options) string {
	return filepath.Join(o.spanDir, o.workload+"-seed"+strconv.FormatInt(o.seed, 10)+".tsv")
}
