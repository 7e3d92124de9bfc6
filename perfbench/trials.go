package main

import (
	"runtime"
	"sync"

	"tspusim"
	"tspusim/internal/fleet"
	"tspusim/internal/hostnet"
	"tspusim/internal/measure"
	"tspusim/internal/sim"
	"tspusim/internal/topo"
)

// The trials workload is Table 1's trigger-reliability experiment (table1,
// 2000 trials per vantage x blocking-type cell) over several derived seeds,
// run as fleet jobs through tspusim.JobRunner on fleet.NewRunner with two
// workers. The op is one trial. A round is one fleet run of the whole plan;
// rounds repeat until the time budget is spent.
const (
	trialsSeeds    = 4
	trialsWorkers  = 2 // capped at the host's CPU count by workers
	trialsPerCell  = 2000
	trialsPerJob   = 3 * 5 * trialsPerCell // vantages x Table 1 columns x trials
	trialsMaxFail  = 20.0                  // percent; measure's Table 1 test bound
	trialsSetupPer = 4                     // set-up builds per job seed, so setup_s is a median of many
)

// workers is the fleet's worker count: two, but never more than the host
// has CPUs.
func workers() int { return min(trialsWorkers, runtime.NumCPU()) }

// trialsPlan is the fleet plan the seed generates.
func trialsPlan(seed uint64) []fleet.Job {
	return fleet.Plan(sim.StreamSeed(seed, "perfbench/trials"), []string{"table1"}, trialsSeeds, 1)
}

// censusJob is one job recomputed on a lab the benchmark can see. The
// experiment is a pure function of the job seed, so its render must equal
// the fleet job's output byte for byte; the lab then gives what the fleet
// job's lab cannot show from outside — how many packets its censor devices
// handled.
type censusJob struct {
	out     string
	handled int
	lab     *topo.Lab
}

// census recomputes job on a fresh lab, tapping every link when tapped.
//
//tspuvet:impure looks table1 up in the experiment registry, which also lists fleet-backed experiments; the recomputation itself is seed-pure
func census(job fleet.Job, tapped bool) (censusJob, *tapper) {
	exp, _ := tspusim.Find("table1")
	lab := topo.Build(tspusim.Options{Seed: job.Seed})
	var tap *tapper
	if tapped {
		tap = newTapper(lab.Sim, lab.Net)
	}
	res := measure.Reliability(lab, trialsPerCell)
	if tap != nil {
		tap.flush()
	}
	c := censusJob{out: exp.Header() + "\n" + res.Render(), lab: lab}
	c.handled = countDevices(lab.Devices).handled
	return c, tap
}

// checkCells holds a job's Table 1 cells to the bounds the measure tests
// assert: every failure rate within [0, 20%], and OBIT's QUIC device, whose
// configured failure rate is 0, never misses. It returns how many trials
// the out-of-bounds cells hold (a missing cell fails the whole job) and the
// first problem.
func checkCells(stats []fleet.Stat) (failed int, problem string) {
	if len(stats) != 15 {
		return trialsPerJob, sprintf("%d Table 1 cells, want 15", len(stats))
	}
	for _, s := range stats {
		msg := ""
		switch {
		case s.Value < 0 || s.Value > trialsMaxFail:
			msg = sprintf("cell %s = %.2f%% outside [0, %.0f%%]", s.Key, s.Value, trialsMaxFail)
		case s.Key == topo.OBIT+"/QUIC fail%" && s.Value != 0:
			msg = sprintf("cell %s = %.2f%%, configured 0", s.Key, s.Value)
		}
		if msg != "" {
			failed += trialsPerCell
			if problem == "" {
				problem = msg
			}
		}
	}
	return failed, problem
}

// trialsRound is one fleet run of the plan.
type trialsRound struct {
	aggregate string
	snap      fleet.Snapshot
	jobNs     []int64
}

// jobRunner is the fleet RunFunc the workload drives: tspu-lab's own job
// runner over default lab options.
//
//tspuvet:impure tspusim.JobRunner resolves experiments through the registry, which lists fleet-backed experiments; table1 jobs are seed-pure
func jobRunner() fleet.RunFunc { return tspusim.JobRunner(tspusim.Options{}) }

// runRound runs the plan once through the fleet runner and checks every
// job: it must not fail, its cells must be in bounds, and its output must
// equal the census recomputation.
//
//tspuvet:impure the fleet runner keeps wall-clock worker metrics, which busy_ratio reads; job outputs and the aggregate are seed-pure
func runRound(run fleet.RunFunc, jobs []fleet.Job, cens []censusJob, ph *phaseStats, tr *tracer, op int64, o *outcome) trialsRound {
	jobNs := make([]int64, len(jobs))
	var mu sync.Mutex
	root := tr.begin(op, -1, "fleet.run")
	wrapped := func(job fleet.Job) (string, []fleet.Stat, error) {
		sp := tr.begin(op+1+int64(job.Index), root, "fleet.job")
		t0 := nanotime()
		out, stats, err := run(job)
		jobNs[job.Index] = nanotime() - t0
		tr.end(sp)
		mu.Lock()
		ph.heap.sample()
		mu.Unlock()
		return out, stats, err
	}
	t0 := nanotime()
	rep := fleet.NewRunner(fleet.Config{Workers: workers()}).Run(jobs, wrapped)
	ph.cur.ns += nanotime() - t0
	tr.end(root)
	ph.heap.sample()

	for i, r := range rep.Results {
		ph.cur.ops += trialsPerJob
		ph.cur.batchUs = append(ph.cur.batchUs, float64(jobNs[i])/1e3)
		ph.cur.pkts += uint64(cens[i].handled)
		o.attempted += trialsPerJob
		if r.Failed() {
			o.fail(trialsPerJob, "trials: job %s failed: %v", r.Job.Label(), r.Err)
			continue
		}
		if r.Output != cens[i].out {
			o.fail(trialsPerJob, "trials: job %s output differs from its recomputation", r.Job.Label())
			continue
		}
		if n, msg := checkCells(r.Stats); n > 0 {
			o.fail(n, "trials: job %s: %s", r.Job.Label(), msg)
		}
	}
	ph.endRound()
	return trialsRound{aggregate: rep.RenderAggregate(), snap: rep.Metrics, jobNs: jobNs}
}

func runTrials(cfg runConfig) (*outcome, error) {
	o := &outcome{}
	jobs := trialsPlan(cfg.seed)
	run := jobRunner()
	budget := cfg.seconds
	if cfg.trace {
		budget /= 2
	}

	ph := newPhase()
	for r := 0; r < trialsSetupPer; r++ {
		for _, j := range jobs {
			buildLab(tspusim.Options{Seed: j.Seed}, ph, nil, 0)
		}
	}
	cens := make([]censusJob, len(jobs))
	for i, j := range jobs {
		cens[i], _ = census(j, false)
		cens[i].lab = nil
	}

	var firstAgg *string
	checkAgg := func(r trialsRound) {
		if firstAgg == nil {
			firstAgg = &r.aggregate
		} else if r.aggregate != *firstAgg {
			o.fail(0, "trials: fleet aggregate differs between rounds of the same plan")
		}
	}
	ph.rt0 = readRuntime() // runtime costs count from the first op, not from set-up
	start := nanotime()
	for seconds(nanotime()-start) < budget || len(ph.rounds) == 0 {
		checkAgg(runRound(run, jobs, cens, ph, nil, 0, o))
	}
	o.e2e = ph.e2e()
	if !cfg.trace {
		return o, nil
	}

	layer := map[string]float64{}
	ph.runtimeMetrics(layer)
	untracedOps := o.e2e["ops_per_s"]
	tr := newTracer()
	tph := newPhase()
	var rounds []trialsRound
	op := int64(0)
	start = nanotime()
	for seconds(nanotime()-start) < budget || len(rounds) == 0 {
		r := runRound(run, jobs, cens, tph, tr, op, o)
		checkAgg(r)
		rounds = append(rounds, r)
		op += int64(len(jobs)) + 1
	}
	layer["trace.overhead_frac"] = 1 - ratio(tph.e2e()["ops_per_s"], untracedOps)

	var jobS []float64
	var wall, elapsed float64
	retries := 0
	for _, r := range rounds {
		for _, ns := range r.jobNs {
			jobS = append(jobS, seconds(ns))
		}
		wall += r.snap.JobWall.Seconds()
		elapsed += r.snap.Elapsed.Seconds()
		retries += r.snap.Retried
	}
	layer["fleet.job_s_p50"] = quantile(jobS, 0.5)
	layer["fleet.busy_ratio"] = ratio(wall, float64(workers())*elapsed)
	layer["fleet.retries"] = float64(retries)

	// One job recomputed with every link of its lab tapped: the per-layer
	// replays draw on its packets, and its output must still equal the fleet
	// job's, which shows the taps did not perturb the run.
	sp := tr.begin(op, -1, "measure.reliability")
	c, tap := census(jobs[0], true)
	tr.end(sp)
	if c.out != cens[0].out {
		o.fail(0, "trials: tapped recomputation of job %s differs from the untapped one", jobs[0].Label())
	}
	lab := c.lab
	events := lab.Sim.Processed()
	layer["sim.events"] = float64(events)
	layer["sim.events_per_op"] = ratio(float64(events), float64(trialsPerJob))
	layer["sim.pool_reuse_ratio"] = ratio(float64(lab.Sim.PoolReuses()), float64(events))
	countDevices(lab.Devices).layer(layer)
	tap.netemLayer(tr, op, trialsPerJob, layer)
	packetLayer(tr, op, tap.packets(), layer)
	sniLayer(tr, op, tap.hellos, layer)
	simLayer(tr, op, int(quantile(tap.depths, 0.5)), layer)
	handleLayer(tr, op, tap.devPkts, labTwin(lab.Controller.Policy()), layer)
	sweepLayer(tr, op, largestTable(lab), layer)
	trialsHandshakes(tr, op, o, lab, layer)
	layer["topo.build_alloc_mb"] = buildAllocMB(tspusim.Options{Seed: jobs[0].Seed})
	layer["tspu.conntrack_peak"] = float64(tap.tablePeak)
	layer["tspu.frag_queues_peak"] = float64(tap.fragPeak)
	zeroLayers(layer, "engine.push_ns", "engine.process_ns_per_pkt", "engine.sweep_batch_us",
		"engine.plain_batch_us", "engine.allocs_per_batch")
	o.layer = layer
	o.tr = tr
	return o, nil
}

// trialsHandshakes times handshakes from each in-country vantage to the US
// server Table 1 dials (port 443, listening after the experiment ran).
func trialsHandshakes(tr *tracer, op int64, o *outcome, lab *topo.Lab, into map[string]float64) {
	stacks := make([]*hostnet.Stack, len(measure.Vantages))
	for i, name := range measure.Vantages {
		stacks[i] = lab.Vantages[name].Stack
	}
	handshakes(tr, op, o, maxHandshakes, func(i int) *hostnet.TCPConn {
		c := stacks[i%len(stacks)].Dial(lab.US1.Addr(), 443, hostnet.DialOptions{})
		lab.Sim.Run()
		return c
	}, lab.Sim.Run, into)
}
