package main

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"time"
)

// benchSpec is the part of BENCHMARK.json the self-test checks against.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// smoke is the benchmark's self-test: every workload at a small size,
// two untraced passes and one traced pass. It requires every oracle to
// pass, the digest to repeat, and the printed metric names and units to
// match BENCHMARK.json (read from the working directory).
func smoke(o options) error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	var specNames []string
	for _, w := range spec.Workloads {
		specNames = append(specNames, w.Name)
		if _, ok := workloads[w.Name]; !ok {
			return fmt.Errorf("BENCHMARK.json names workload %q, which the benchmark lacks", w.Name)
		}
	}
	for name := range workloads {
		if !slices.Contains(specNames, name) {
			return fmt.Errorf("workload %q is missing from BENCHMARK.json", name)
		}
	}
	for _, name := range specNames {
		t0 := time.Now()
		res, err := measure(workloads[name], o.seed, smokeSize, 0, true)
		if err != nil {
			return err
		}
		if res.failed != 0 || res.attempted == 0 {
			return fmt.Errorf("%s: %d of %d ops failed", name, res.failed, res.attempted)
		}
		if err := sameNames(name+" end-to-end", res.endToEnd(), spec.EndToEnd); err != nil {
			return err
		}
		if err := sameNames(name+" per-layer", res.layerMetrics(), spec.PerLayer); err != nil {
			return err
		}
		fmt.Printf("smoke %-12s ok: %d passes, %d ops, digest %x repeated, %.1fs\n",
			name, len(res.passes)+len(res.traced), res.attempted, res.digest[:8], time.Since(t0).Seconds())
	}
	return nil
}

func sameNames(what string, got map[string]metric, want []specMetric) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: the benchmark prints %d metrics, BENCHMARK.json lists %d", what, len(got), len(want))
	}
	for _, w := range want {
		m, ok := got[w.Name]
		if !ok {
			return fmt.Errorf("%s: metric %q is not printed", what, w.Name)
		}
		if m.Unit != w.Unit {
			return fmt.Errorf("%s: metric %q has unit %q, BENCHMARK.json says %q", what, w.Name, m.Unit, w.Unit)
		}
	}
	return nil
}
