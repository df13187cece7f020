package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// smokeBudget keeps the self-test quick.
const smokeBudget = 400

// benchSpec is the part of BENCHMARK.json the self-test checks.
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

// smokeTest runs every workload at a tiny budget over one trace per
// scenario list, in both modes, and fails unless every metric of the
// benchmark definition is printed with its unit and nothing failed.
func smokeTest(specPath string) error {
	raw, err := os.ReadFile(specPath)
	if err != nil {
		return err
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("%s: %w", specPath, err)
	}
	if err := sameDefs("end_to_end", spec.EndToEnd, endToEnd); err != nil {
		return err
	}
	if err := sameDefs("per_layer", spec.PerLayer, perLayer); err != nil {
		return err
	}
	if len(spec.Workloads) != len(workloadOrder) {
		return fmt.Errorf("%s lists %d workloads, the benchmark runs %d", specPath, len(spec.Workloads), len(workloadOrder))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadOrder[i] {
			return fmt.Errorf("%s: workload %d is %q, want %q", specPath, i, w.Name, workloadOrder[i])
		}
	}
	for _, w := range workloadOrder {
		for _, traced := range []bool{false, true} {
			cfg := config{workload: w, seed: 1, traced: traced, budget: smokeBudget, setupReps: 1, smoke: true, procs: procs()}
			t0 := time.Now()
			res, err := run(cfg)
			if err != nil {
				return fmt.Errorf("%s (trace %v): %w", w, traced, err)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				return fmt.Errorf("%s (trace %v): %d metrics printed, want %d", w, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.name]
				if !ok || got.Unit != m.unit {
					return fmt.Errorf("%s (trace %v): metric %s missing or not in %s", w, traced, m.name, m.unit)
				}
			}
			if res.Failed != 0 || !res.Correct {
				return fmt.Errorf("%s (trace %v): fail_ratio %d/%d", w, traced, res.Failed, res.Attempted)
			}
			fmt.Printf("# smoke %-18s trace=%v ok: %d outputs checked, %.1fs\n", w, traced, res.Attempted, time.Since(t0).Seconds())
		}
	}
	return nil
}

// sameDefs compares a metric list of BENCHMARK.json with the program's.
func sameDefs(what string, spec []specMetric, defs []metricDef) error {
	if len(spec) != len(defs) {
		return fmt.Errorf("BENCHMARK.json %s has %d metrics, the benchmark prints %d", what, len(spec), len(defs))
	}
	for i, m := range spec {
		if m.Name != defs[i].name || m.Unit != defs[i].unit {
			return fmt.Errorf("BENCHMARK.json %s[%d] is %s (%s), the benchmark prints %s (%s)",
				what, i, m.Name, m.Unit, defs[i].name, defs[i].unit)
		}
	}
	return nil
}
