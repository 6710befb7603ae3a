package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
)

// configJSON is perfbench/config.json: the fixed parameters of every
// workload. It is compiled into the program rather than read at run time so
// that every run of a workload, on any commit, does the same work. The file
// also records the host the sizes were calibrated on, and notes.
//
//go:embed config.json
var configJSON []byte

type config struct {
	Workloads map[string]workloadConfig `json:"workloads"`
}

// workloadConfig holds one workload's parameters; why each workload exists
// is recorded beside its name in BENCHMARK.json.
type workloadConfig struct {
	// PoolCores is the core count of every SoC the workload draws.
	PoolCores int `json:"pool_cores"`
	// TailPercentile is the fixed percentile op_tail_ms reports.
	TailPercentile float64 `json:"tail_percentile"`
	// SetupRepeats is how many times a run sets up; setup_s is the median.
	SetupRepeats int `json:"setup_repeats"`

	// Closed loops only: the size of the seeded SoC pool the ops cycle
	// through (a traced run alternates untraced and traced passes over it)
	// and the grid-resolution validation oracle's N (N×N; 0 is the block
	// model).
	PoolSize int `json:"pool_size,omitempty"`
	GridRes  int `json:"grid_res,omitempty"`
	// SchedulesPerOp is how many schedules a warm-restart op answers.
	SchedulesPerOp int `json:"schedules_per_op,omitempty"`
	// serve-mixed only: the arrival rate and the traffic mix.
	RateRPS     float64 `json:"rate_rps,omitempty"`
	LiveSystems int     `json:"live_systems,omitempty"`
	ColdShare   float64 `json:"cold_share,omitempty"`
	JobShare    float64 `json:"job_share,omitempty"`
}

// parseConfig decodes and checks the embedded parameters.
func parseConfig(b []byte) (*config, error) {
	var c config
	if err := json.Unmarshal(b, &c); err != nil {
		return nil, fmt.Errorf("parsing config.json: %w", err)
	}
	for name, w := range c.Workloads {
		if w.PoolCores < 2 || w.SetupRepeats < 1 || !(w.TailPercentile > 50 && w.TailPercentile < 100) {
			return nil, fmt.Errorf("config.json: workload %s: pool cores, setup repeats or tail percentile out of range", name)
		}
		if name == serveMixedName {
			if !(w.RateRPS > 0) || w.LiveSystems < 1 {
				return nil, fmt.Errorf("config.json: workload %s needs rate_rps and live_systems", name)
			}
		} else if w.PoolSize < 1 {
			return nil, fmt.Errorf("config.json: workload %s needs pool_size", name)
		}
	}
	return &c, nil
}
