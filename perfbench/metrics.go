package main

import (
	"encoding/json"
	"fmt"
)

// metricDef names one reported metric. Bound (end-to-end metrics only)
// is the share of the baseline median by which the metric may worsen
// before a change counts as a regression.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"host_us_per_io", "us", "lower", 0.25},
	{"live_heap_mib", "MiB", "lower", 0.05},
	{"virt_p50_us", "us", "lower", 0.05},
	{"virt_p99_us", "us", "lower", 0.15},
	{"virt_kiops", "io/ms", "higher", 0.05},
}

// hostShareLayers are the repro/internal packages whose share of the
// window's CPU samples is reported as <layer>.host_share.
var hostShareLayers = []string{
	"sim", "memory", "pcie", "ntb", "nvme", "core", "block",
	"hostdriver", "nvmeof", "rdma", "fio",
}

// traceStages are the stages reported as trace.<stage>_ns: mean virtual
// ns per IO of the primary topology.
var traceStages = []string{
	"submit", "reap", "cq-poll", "ntb-cross",
	"ctrl-fetch", "medium", "data-xfer", "cq-post",
}

func perLayerDefs() []metricDef {
	defs := []metricDef{
		{Name: "sim.events_per_io", Unit: "events/io"},
		{Name: "sim.ns_per_event", Unit: "ns"},
		{Name: "runtime.sched_share", Unit: "frac"},
		{Name: "cluster.build_ms", Unit: "ms"},
		{Name: "memory.setup_share", Unit: "frac"},
		{Name: "pcie.tlps_per_io", Unit: "tlps/io"},
		{Name: "pcie.bytes_per_io", Unit: "B/io"},
		{Name: "pcie.crossings_per_io", Unit: "count/io"},
		{Name: "ntb.translations_per_io", Unit: "count/io"},
		{Name: "nvme.fetches_per_io", Unit: "count/io"},
		{Name: "nvme.sq_doorbells_per_io", Unit: "count/io"},
		{Name: "nvme.ctrl_busy_frac", Unit: "frac"},
		{Name: "core.bringup_ms", Unit: "ms"},
		{Name: "core.retries", Unit: "count"},
		{Name: "core.timeouts", Unit: "count"},
		{Name: "driver.host_us_per_call", Unit: "us"},
		{Name: "driver.virt_us_per_call", Unit: "us"},
		{Name: "runtime.allocs_per_io", Unit: "count/io"},
		{Name: "runtime.alloc_bytes_per_io", Unit: "B/io"},
		{Name: "runtime.gc_cpu_frac", Unit: "frac"},
		{Name: "trace.overhead_us_per_io", Unit: "us"},
	}
	for _, l := range hostShareLayers {
		defs = append(defs, metricDef{Name: l + ".host_share", Unit: "frac"})
	}
	for _, st := range traceStages {
		defs = append(defs, metricDef{Name: "trace." + st + "_ns", Unit: "ns"})
	}
	for i := range defs {
		defs[i].Better = "lower"
	}
	return defs
}

// describe renders BENCHMARK.json: the benchmark's command, workloads and
// metric table.
func describe() ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	d := struct {
		Command    []string    `json:"command"`
		Paths      []string    `json:"paths"`
		RunSeconds int         `json:"run_seconds"`
		Workloads  []wl        `json:"workloads"`
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}{
		Command:    []string{"python3", "perfbench/run.py"},
		Paths:      []string{"perfbench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayerDefs(),
	}
	for _, w := range workloads {
		d.Workloads = append(d.Workloads, wl{w.name, w.why})
	}
	out, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("describe: %w", err)
	}
	return append(out, '\n'), nil
}
