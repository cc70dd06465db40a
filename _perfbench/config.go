package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// metricDef is one metric as BENCHMARK.json declares it.
type metricDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// config is the metric lists of BENCHMARK.json plus this benchmark's own
// recorded data from config.json: the output digests of the default
// seed and the serve workload's fixed latency limit and rate ladder.
type config struct {
	EndToEnd []metricDef `json:"-"`
	PerLayer []metricDef `json:"-"`

	SuiteDigest  string                       `json:"suite_digest"`
	AnchorErrPct float64                      `json:"anchor_err_pct"`
	Digests      map[string]map[string]string `json:"digests"`
	Serve        serveConfig                  `json:"serve"`
}

// serveConfig fixes the serve workload's load: the rate ladder and the
// latency limit were set once from the measured saturation rate of the
// default seed and are not recomputed per run.
type serveConfig struct {
	LatencyLimitMS float64 `json:"latency_limit_ms"`
	Ladder         []step  `json:"ladder"`
	LoadedPerS     float64 `json:"loaded_jobs_per_s"`
}

// step is one ladder rate and its share of the run's --seconds.
type step struct {
	JobsPerS float64 `json:"jobs_per_s"`
	Share    float64 `json:"share"`
}

func loadConfig(root string) (*config, error) {
	var bench struct {
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := readJSON(filepath.Join(root, "BENCHMARK.json"), &bench); err != nil {
		return nil, err
	}
	cfg := &config{}
	if err := readJSON(filepath.Join(root, "_perfbench", "config.json"), cfg); err != nil {
		return nil, err
	}
	cfg.EndToEnd, cfg.PerLayer = bench.EndToEnd, bench.PerLayer
	if len(cfg.Serve.Ladder) == 0 {
		return nil, fmt.Errorf("config.json: serve ladder is empty")
	}
	return cfg, nil
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}
