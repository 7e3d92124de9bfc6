package main

import (
	"fmt"
	"math"
	"sort"
)

// metricDef declares one reported metric. The tables below are the single
// source of names and units: perfbench emits exactly these, BENCHMARK.json
// lists exactly these (a self-test pins the two together), and README.md
// documents them.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	layer  string
}

// endToEnd are the metrics a user of the lab sees; they are measured with
// tracing off. Every workload reports all of them (see README.md for what a
// "batch" is on each workload).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", "workload"},
	{"ops_per_s", "1/s", "higher", "workload"},
	{"pkts_per_s", "1/s", "higher", "tspu"},
	{"batch_p50_us", "us", "lower", "workload"},
	{"batch_p99_us", "us", "lower", "workload"},
	{"peak_heap_mb", "MB", "lower", "runtime"},
}

// perLayer are the traced run's metrics. A layer a workload never reaches
// reports 0 on that workload (the layer x workload matrix in README.md).
var perLayer = []metricDef{
	{"fail_ratio", "ratio", "lower", "workload"},
	{"packet.clone_ns", "ns", "lower", "packet"},
	{"packet.fragment_ns", "ns", "lower", "packet"},
	{"packet.flowkey_ns", "ns", "lower", "packet"},
	{"tlsx.sni_ns", "ns", "lower", "tlsx"},
	{"sim.events", "count", "lower", "sim"},
	{"sim.events_per_op", "count", "lower", "sim"},
	{"sim.pool_reuse_ratio", "ratio", "higher", "sim"},
	{"sim.event_ns", "ns", "lower", "sim"},
	{"netem.hops_per_op", "count", "lower", "netem"},
	{"netem.lookup_ns", "ns", "lower", "netem"},
	{"hostnet.handshake_us", "us", "lower", "hostnet"},
	{"hostnet.alloc_bytes_per_handshake", "B", "lower", "hostnet"},
	{"tspu.handle_ns", "ns", "lower", "tspu"},
	{"tspu.sweep_us", "us", "lower", "tspu"},
	{"tspu.conntrack_peak", "count", "lower", "tspu"},
	{"tspu.pool_reuse_ratio", "ratio", "higher", "tspu"},
	{"tspu.pressure_evictions", "count", "lower", "tspu"},
	{"tspu.timeout_evictions", "count", "lower", "tspu"},
	{"tspu.frag_queues_peak", "count", "lower", "tspu"},
	{"tspu.triggers", "count", "lower", "tspu"},
	{"engine.push_ns", "ns", "lower", "engine"},
	{"engine.process_ns_per_pkt", "ns", "lower", "engine"},
	{"engine.sweep_batch_us", "us", "lower", "engine"},
	{"engine.plain_batch_us", "us", "lower", "engine"},
	{"engine.allocs_per_batch", "count", "lower", "engine"},
	{"topo.build_alloc_mb", "MB", "lower", "topo"},
	{"fleet.job_s_p50", "s", "lower", "fleet"},
	{"fleet.busy_ratio", "ratio", "higher", "fleet"},
	{"fleet.retries", "count", "lower", "fleet"},
	{"runtime.alloc_bytes_per_op", "B", "lower", "runtime"},
	{"runtime.gc_cycles", "count", "lower", "runtime"},
	{"runtime.gc_cpu_frac", "ratio", "lower", "runtime"},
	{"trace.overhead_frac", "ratio", "lower", "trace"},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line perfbench prints to standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// fill builds the metrics map for defs from values, failing on a value the
// workload did not produce or a non-finite one, so a metric can never be
// silently dropped or printed as NaN.
func fill(defs []metricDef, values map[string]float64) (map[string]metric, error) {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.name, v)
		}
		out[d.name] = metric{Value: v, Unit: d.unit}
	}
	return out, nil
}

// quantile returns the nearest-rank q-quantile of xs (0 for no samples). It
// sorts a copy, leaving xs in measurement order.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// ratio is a/b, or 0 when b is 0 (a layer the workload never reached).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
