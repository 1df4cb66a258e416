package main

import (
	"encoding/json"
	"fmt"
)

// runSeconds is how long one driver run measures (BENCHMARK.json's
// run_seconds, and the -seconds default).
const runSeconds = 15

// manifestJSON renders BENCHMARK.json from the benchmark's own tables, so
// the names, units and bounds the driver reads are the ones the code uses.
func manifestJSON() ([]byte, error) {
	type workload struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type endToEnd struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type perLayer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string   `json:"command"`
		Paths      []string   `json:"paths"`
		RunSeconds int        `json:"run_seconds"`
		Workloads  []workload `json:"workloads"`
		EndToEnd   []endToEnd `json:"end_to_end"`
		PerLayer   []perLayer `json:"per_layer"`
	}{
		Command: []string{"bash", "benchmark/run.sh"}, Paths: []string{"benchmark"}, RunSeconds: runSeconds,
	}
	for _, w := range workloadDefs {
		if w.name == ungatedWorkload {
			continue
		}
		if len(w.why) > 200 {
			return nil, fmt.Errorf("workload %s: why is %d characters, limit 200", w.name, len(w.why))
		}
		doc.Workloads = append(doc.Workloads, workload{w.name, w.why})
	}
	for _, d := range endToEndDefs {
		doc.EndToEnd = append(doc.EndToEnd, endToEnd{d.name, d.unit, d.better, d.bound})
	}
	for _, d := range perLayerDefs {
		if !d.gateway {
			doc.PerLayer = append(doc.PerLayer, perLayer{d.name, d.unit, d.better})
		}
	}
	if len(doc.PerLayer) > 128 {
		return nil, fmt.Errorf("%d per-layer metrics, limit 128", len(doc.PerLayer))
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}
