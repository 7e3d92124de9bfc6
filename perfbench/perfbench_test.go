package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"

	"tspusim/internal/fleet"
	"tspusim/internal/measure"
	"tspusim/internal/topo"
	"tspusim/internal/tspu"
)

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !metricName.MatchString(d.name) || len(d.name) > 64 {
			t.Errorf("metric name %q does not match %s", d.name, metricName)
		}
		if seen[d.name] {
			t.Errorf("metric %q declared twice", d.name)
		}
		seen[d.name] = true
		if d.better != "lower" && d.better != "higher" {
			t.Errorf("metric %q: better = %q", d.name, d.better)
		}
	}
}

// TestBenchmarkFileMatchesCode pins BENCHMARK.json to the code's metric
// tables and workload list, so neither can drift from the other.
func TestBenchmarkFileMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, perfbench has %d", len(bf.Workloads), len(workloads))
	}
	for _, w := range bf.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q unknown to perfbench", w.Name)
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, perfbench %d", len(bf.EndToEnd), len(endToEnd))
	}
	for i, m := range bf.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end %d: file %+v, perfbench %+v", i, m, d)
		}
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, perfbench %d", len(bf.PerLayer), len(perLayer))
	}
	for i, m := range bf.PerLayer {
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per-layer %d: file %+v, perfbench %+v", i, m, d)
		}
	}
}

func TestFloodCheckRejectsCorruptRows(t *testing.T) {
	in := newFloodInput(1)
	good := map[int]floodRow{}
	for _, b := range floodBounds {
		r := floodRowRun(in, b, newPhase(), nil, 0)
		if msg := checkFloodRow(r); msg != "" {
			t.Fatalf("bound %d: genuine row rejected: %s", b, msg)
		}
		good[b] = r
	}
	corrupt := map[string]func(*floodRow){
		"leaked flow":          func(r *floodRow) { r.leaked = 1 },
		"lost hold, unbounded": func(r *floodRow) { r.survived = r.bound != 0 },
		"hold survives bound":  func(r *floodRow) { r.survived = true },
		"pool accounting":      func(r *floodRow) { r.reuses++ },
		"hold never installed": func(r *floodRow) { r.held = false },
	}
	for name, f := range corrupt {
		for b, r := range good {
			f(&r)
			if r == good[b] {
				continue // the corruption is a no-op on this row
			}
			if checkFloodRow(r) == "" {
				t.Errorf("%s on bound %d: accepted", name, b)
			}
		}
	}
}

func TestScanCheckRejectsFlippedVerdict(t *testing.T) {
	lab := topo.Build(topo.Options{Seed: 3, Endpoints: 120, ASes: 8, EchoServers: 10, TrancoN: 50, RegistryN: 50})
	res := measure.FragScan(lab, false, true)
	positives := 0
	for _, v := range res.Verdicts {
		if msg := checkVerdict(v); msg != "" {
			t.Fatalf("genuine verdict rejected: %s", msg)
		}
		flipped := v
		flipped.TSPULike = !v.TSPULike
		if checkVerdict(flipped) == "" {
			t.Fatalf("flipped verdict for %v accepted", v.Endpoint.Addr)
		}
		if v.TSPULike {
			positives++
			moved := v
			moved.LocalizedHops++
			if checkVerdict(moved) == "" {
				t.Fatalf("wrong localization for %v accepted", v.Endpoint.Addr)
			}
		}
	}
	if positives == 0 {
		t.Fatal("no TSPU-like endpoints in the test lab")
	}
}

func TestTrialsCheckRejectsFailedJob(t *testing.T) {
	jobs := trialsPlan(1)[:2]
	cens := make([]censusJob, len(jobs))
	boom := func(fleet.Job) (string, []fleet.Stat, error) { return "", nil, errors.New("boom") }
	o := &outcome{}
	runRound(boom, jobs, cens, newPhase(), nil, 0, o)
	if o.failed != len(jobs)*trialsPerJob || len(o.problems) == 0 {
		t.Fatalf("failed jobs: failed=%d problems=%v", o.failed, o.problems)
	}

	// A job that succeeds but whose output differs from its recomputation.
	odd := func(fleet.Job) (string, []fleet.Stat, error) { return "tampered", goodCells(), nil }
	o = &outcome{}
	runRound(odd, jobs, cens, newPhase(), nil, 0, o)
	if o.failed != len(jobs)*trialsPerJob {
		t.Fatalf("tampered output: failed=%d", o.failed)
	}

	if n, msg := checkCells(goodCells()); n != 0 {
		t.Fatalf("in-bounds cells rejected: %s", msg)
	}
	high := goodCells()
	high[3].Value = 25
	if n, _ := checkCells(high); n != trialsPerCell {
		t.Fatalf("a 25%% failure rate: %d trials failed, want %d", n, trialsPerCell)
	}
	quic := goodCells()
	for i := range quic {
		if quic[i].Key == topo.OBIT+"/QUIC fail%" {
			quic[i].Value = 0.05
		}
	}
	if n, _ := checkCells(quic); n != trialsPerCell {
		t.Fatal("OBIT QUIC failures were accepted")
	}
	if n, _ := checkCells(goodCells()[:14]); n != trialsPerJob {
		t.Fatal("a missing cell was accepted")
	}
}

// TestTrialsCheckCatchesSNI2InSNI1 runs Table 1 on a lab whose policy also
// lists the SNI-II probe domain under SNI-I — the state some lab seeds reach
// at HEAD — and checks that the cell bounds catch the wrong SNI-II column.
func TestTrialsCheckCatchesSNI2InSNI1(t *testing.T) {
	lab := topo.Build(topo.Options{Seed: 1})
	lab.Controller.Update(func(p *tspu.Policy) { p.SNI1Domains.Add(measure.DomainSNI2) })
	res := measure.Reliability(lab, 20)
	var stats []fleet.Stat
	for _, v := range measure.Vantages {
		for i, typ := range measure.ReliabilityTypes {
			stats = append(stats, fleet.Stat{Key: v + "/" + measure.ReliabilityCols[i] + " fail%", Value: 100 * res.Failures[v][typ]})
		}
	}
	if n, msg := checkCells(stats); n == 0 {
		t.Fatalf("SNI-II column measured under an SNI-I policy passed the check: %v", res.Failures)
	} else {
		t.Log(msg)
	}
}

func goodCells() []fleet.Stat {
	var out []fleet.Stat
	for _, v := range measure.Vantages {
		for _, c := range measure.ReliabilityCols {
			out = append(out, fleet.Stat{Key: v + "/" + c + " fail%", Value: 1})
		}
	}
	for i := range out {
		if out[i].Key == topo.OBIT+"/QUIC fail%" {
			out[i].Value = 0
		}
	}
	return out
}

// TestSeedChangesInputsNotVerdicts: another seed generates another flood,
// another scan lab and another fleet plan, and every check still passes.
func TestSeedChangesInputsNotVerdicts(t *testing.T) {
	a, b := newFloodInput(1), newFloodInput(2)
	if a.syn(0).IP.Src == b.syn(0).IP.Src || a.victimSport == b.victimSport {
		t.Error("flood inputs do not depend on the seed")
	}
	if fmt.Sprint(scanOrder(1, 50)) == fmt.Sprint(scanOrder(2, 50)) {
		t.Error("scan order does not depend on the seed")
	}
	pa, pb := trialsPlan(1), trialsPlan(2)
	if pa[0].Seed == pb[0].Seed {
		t.Error("trials plans do not depend on the seed")
	}
	if testing.Short() {
		t.Skip("full workload runs")
	}
	for _, seed := range []uint64{1, 2} {
		for name, run := range workloads {
			o, err := run(runConfig{seed: seed, seconds: 1e-9})
			if err != nil {
				t.Fatal(err)
			}
			if o.failed != 0 || len(o.problems) > 0 || o.attempted == 0 {
				t.Errorf("%s seed %d: attempted=%d failed=%d problems=%v", name, seed, o.attempted, o.failed, o.problems)
			}
		}
	}
}

// TestTracingDoesNotPerturb runs each workload's untraced and traced phases
// for one seed. Each workload compares them itself — scan verdict digests,
// the trials fleet aggregate and a tapped recomputation, flood row
// behaviour — so any difference is a failed op or a problem.
func TestTracingDoesNotPerturb(t *testing.T) {
	if testing.Short() {
		t.Skip("full workload runs")
	}
	for name, run := range workloads {
		o, err := run(runConfig{seed: 7, seconds: 1e-9, trace: true})
		if err != nil {
			t.Fatal(err)
		}
		if o.failed != 0 || len(o.problems) > 0 {
			t.Errorf("%s: failed=%d problems=%v", name, o.failed, o.problems)
		}
		if _, err := fill(perLayer, withFail(o)); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if _, err := fill(endToEnd, o.e2e); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		var buf bytes.Buffer
		if err := o.tr.writeTo(&buf, map[string]string{"workload": name}); err != nil {
			t.Fatal(err)
		}
		if n := strings.Count(buf.String(), "\n"); n != len(o.tr.spans)+1 {
			t.Errorf("%s: trace has %d lines for %d spans", name, n, len(o.tr.spans))
		}
	}
}

func withFail(o *outcome) map[string]float64 {
	o.layer["fail_ratio"] = ratio(float64(o.failed), float64(o.attempted))
	return o.layer
}

func TestSelfTime(t *testing.T) {
	tr := &tracer{spans: []span{
		{op: 1, parent: -1, name: "root", start: 0, end: 100},
		{op: 1, parent: 0, name: "a", start: 10, end: 40},
		{op: 1, parent: 0, name: "b", start: 30, end: 60}, // overlaps a
		{op: 1, parent: 2, name: "c", start: 50, end: 70}, // runs past its parent
	}}
	got := tr.selfTimes()
	want := []int64{50, 30, 20, 20}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d self = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestRunRejectsBadArgs(t *testing.T) {
	var out, errb bytes.Buffer
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-workload", "scan", "-seconds", "0"},
		{"-workload", "scan", "-trace", "2"},
	} {
		if code := run(args, &out, &errb); code == 0 {
			t.Errorf("%v: exit 0", args)
		}
	}
	if out.Len() != 0 {
		t.Errorf("bad args printed a result: %q", out.String())
	}
}
