package main

import (
	"encoding/binary"
	"hash/fnv"
	"runtime"

	"tspusim/internal/hostnet"
	"tspusim/internal/measure"
	"tspusim/internal/sim"
	"tspusim/internal/topo"
	"tspusim/internal/tspu"
)

// The scan workload is §7.2's remote fragmentation scan, as behind Fig. 10
// and Fig. 12: measure.FragScan(lab, false, true) over tspu-lab's default
// lab (seed 1: 2000 endpoints in 40 ASes) from the Paris vantage. The op is
// one endpoint scanned to a verdict. The benchmark hands FragScan
// scanBatch endpoints per call (a view of lab.Endpoints), which runs the
// same probes per endpoint, in the same order, on the same lab as one
// whole-population call, and makes the call's latency observable.
//
// The seed generates the order the endpoints are scanned in. The lab itself
// stays tspu-lab's: labs built from other seeds differ in how many
// endpoints sit behind a TSPU and how deep, which moves the work per
// endpoint by tens of percent, far more than the run-to-run noise the
// benchmark's bounds must resolve.

// scanBatch is how many endpoints one FragScan call scans. A single
// endpoint takes ~0.3 ms, so one vCPU preemption by the host decides
// whether it lands in the top percent; 32 endpoints (~10 ms) make the tail
// a property of the work in the batch.
const scanBatch = 32

// scanLabSeed is tspu-lab's default -seed.
const scanLabSeed = 1

// scanSetupReps is how many labs set-up builds before the first pass, so
// that setup_s is a median over enough samples to be steady.
const scanSetupReps = 15

// scanOptions is the lab every scan run measures: tspu-lab's default.
func scanOptions() topo.Options { return topo.Options{Seed: scanLabSeed} }

// scanOrder is the endpoint order the seed generates.
func scanOrder(seed uint64, n int) []int {
	return sim.NewRand(sim.StreamSeed(seed, "perfbench/scan")).Perm(n)
}

// scanPassResult is one pass over the population.
type scanPassResult struct {
	ops, failed int
	digest      uint64
	events      uint64
	poolReuses  uint64
	counts      deviceCounts
	verdicts    []measure.FragVerdict
}

// scanPass scans every endpoint of lab once, in order, scanBatch endpoints
// per FragScan call, and checks each verdict against the topology's ground
// truth.
func scanPass(lab *topo.Lab, order []int, ph *phaseStats, tr *tracer, opBase int64, o *outcome) scanPassResult {
	all := lab.Endpoints
	ordered := make([]*topo.Endpoint, len(order))
	for i, k := range order {
		ordered[i] = all[k]
	}
	res := scanPassResult{verdicts: make([]measure.FragVerdict, 0, len(all))}
	ev0, re0 := lab.Sim.Processed(), lab.Sim.PoolReuses()
	h := fnv.New64a()
	for i := 0; i < len(ordered); i += scanBatch {
		batch := ordered[i:min(i+scanBatch, len(ordered))]
		lab.Endpoints = batch
		sp := tr.begin(opBase+int64(i), -1, "measure.fragscan")
		t0 := nanotime()
		r := measure.FragScan(lab, false, true)
		t1 := nanotime()
		tr.end(sp)
		ph.cur.ns += t1 - t0
		ph.cur.batchUs = append(ph.cur.batchUs, float64(t1-t0)/1e3)
		ph.cur.ops += len(batch)
		res.ops += len(batch)

		if len(r.Verdicts) != len(batch) {
			o.fail(len(batch), "scan: %d endpoints produced %d verdicts", len(batch), len(r.Verdicts))
			res.failed += len(batch)
			continue
		}
		for j, v := range r.Verdicts {
			res.verdicts = append(res.verdicts, v)
			if v.Endpoint != batch[j] {
				o.fail(1, "scan: verdict %d of a batch is for %v, want %v", j, v.Endpoint.Addr, batch[j].Addr)
				res.failed++
			} else if msg := checkVerdict(v); msg != "" {
				o.fail(1, "scan: endpoint %v: %s", v.Endpoint.Addr, msg)
				res.failed++
			}
			writeVerdict(h, v)
		}
	}
	lab.Endpoints = all
	res.digest = h.Sum64()
	res.events = lab.Sim.Processed() - ev0
	res.poolReuses = lab.Sim.PoolReuses() - re0
	res.counts = countDevices(lab.Devices)
	ph.cur.pkts += uint64(res.counts.handled)
	ph.endRound()
	ph.heap.collect()
	return res
}

// checkVerdict holds a verdict to the paper's ground truth: the 45/46
// fragment fingerprint flags exactly the endpoints behind a symmetric TSPU,
// and TTL-limited localization lands on the device's true distance.
func checkVerdict(v measure.FragVerdict) string {
	ep := v.Endpoint
	if v.TSPULike != ep.BehindTSPU {
		return sprintf("TSPU-like=%v but behind TSPU=%v", v.TSPULike, ep.BehindTSPU)
	}
	if v.TSPULike && v.LocalizedHops != ep.DeviceHops {
		return sprintf("localized at %d hops, device is at %d", v.LocalizedHops, ep.DeviceHops)
	}
	return ""
}

func writeVerdict(h interface{ Write([]byte) (int, error) }, v measure.FragVerdict) {
	var b [12]byte
	a := v.Endpoint.Addr.As4()
	copy(b[:4], a[:])
	binary.BigEndian.PutUint16(b[4:], v.Endpoint.Port)
	for i, f := range []bool{v.Responsive, v.TSPULike, v.IPBlocked} {
		if f {
			b[6+i] = 1
		}
	}
	binary.BigEndian.PutUint16(b[9:], uint16(v.LocalizedHops))
	h.Write(b[:])
}

// buildLab builds a lab from opts, timing it as one set-up sample.
func buildLab(opts topo.Options, ph *phaseStats, tr *tracer, op int64) *topo.Lab {
	sp := tr.begin(op, -1, "topo.build")
	t0 := nanotime()
	lab := topo.Build(opts)
	ph.setupS = append(ph.setupS, float64(nanotime()-t0)/1e9)
	tr.end(sp)
	return lab
}

func runScan(cfg runConfig) (*outcome, error) {
	o := &outcome{}
	opts := scanOptions()
	budget := cfg.seconds
	if cfg.trace {
		budget /= 2
	}

	// Untraced phase: the end-to-end metrics.
	ph := newPhase()
	var lab *topo.Lab
	for i := 0; i < scanSetupReps; i++ {
		lab = buildLab(opts, ph, nil, 0)
	}
	order := scanOrder(cfg.seed, len(lab.Endpoints))
	var first *scanPassResult
	check := func(r scanPassResult) {
		o.attempted += r.ops
		if first == nil {
			first = &r
			return
		}
		if r.digest != first.digest {
			o.fail(r.ops-r.failed, "scan: verdicts differ between passes over the same lab seed (digest %x vs %x)", r.digest, first.digest)
		}
	}
	ph.rt0 = readRuntime() // runtime costs count from the first op, not from set-up
	start := nanotime()
	for pass := 0; ; pass++ {
		if pass > 0 {
			lab = buildLab(opts, ph, nil, 0)
		}
		check(scanPass(lab, order, ph, nil, 0, o))
		if seconds(nanotime()-start) >= budget {
			break
		}
	}
	o.e2e = ph.e2e()
	if !cfg.trace {
		return o, nil
	}

	// Traced phase: every link tapped, spans around every call.
	layer := map[string]float64{}
	ph.runtimeMetrics(layer)
	untracedOps := o.e2e["ops_per_s"]
	tr := newTracer()
	tph := newPhase()
	var tap *tapper
	var traced scanPassResult
	var tracedLab *topo.Lab
	opBase := int64(0)
	start = nanotime()
	for pass := 0; ; pass++ {
		lab = buildLab(opts, tph, tr, opBase)
		t := newTapper(lab.Sim, lab.Net)
		r := scanPass(lab, order, tph, tr, opBase+1, o)
		t.flush()
		check(r)
		if pass == 0 {
			tap, traced, tracedLab = t, r, lab
		}
		opBase += int64(r.ops) + 1
		if seconds(nanotime()-start) >= budget {
			break
		}
	}
	layer["trace.overhead_frac"] = 1 - ratio(tph.e2e()["ops_per_s"], untracedOps)

	op := opBase
	tap.netemLayer(tr, op, traced.ops, layer)
	packetLayer(tr, op, tap.packets(), layer)
	sniLayer(tr, op, tap.hellos, layer)
	simLayer(tr, op, int(quantile(tap.depths, 0.5)), layer)
	handleLayer(tr, op, tap.devPkts, labTwin(tracedLab.Controller.Policy()), layer)
	sweepLayer(tr, op, largestTable(tracedLab), layer)
	handshakeLayer(tr, op, o, tracedLab, traced.verdicts, layer)
	layer["topo.build_alloc_mb"] = buildAllocMB(opts)
	layer["sim.events"] = float64(traced.events)
	layer["sim.events_per_op"] = ratio(float64(traced.events), float64(traced.ops))
	layer["sim.pool_reuse_ratio"] = ratio(float64(traced.poolReuses), float64(traced.events))
	traced.counts.layer(layer)
	layer["tspu.conntrack_peak"] = float64(tap.tablePeak)
	layer["tspu.frag_queues_peak"] = float64(tap.fragPeak)
	zeroLayers(layer, "engine.push_ns", "engine.process_ns_per_pkt", "engine.sweep_batch_us",
		"engine.plain_batch_us", "engine.allocs_per_batch", "fleet.job_s_p50", "fleet.busy_ratio", "fleet.retries")
	o.layer = layer
	o.tr = tr
	return o, nil
}

// largestTable returns the lab device holding the most conntrack state.
func largestTable(lab *topo.Lab) *tspu.Device {
	best := lab.Devices[0]
	for _, d := range lab.Devices[1:] {
		if d.ConntrackSize() > best.ConntrackSize() {
			best = d
		}
	}
	return best
}

// buildAllocMB is the heap allocated by one topo.Build of opts.
func buildAllocMB(opts topo.Options) float64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	lab := topo.Build(opts)
	runtime.ReadMemStats(&b)
	runtime.KeepAlive(lab)
	return float64(b.TotalAlloc-a.TotalAlloc) / (1 << 20)
}

// maxHandshakes bounds the handshake replay.
const maxHandshakes = 256

// handshakeLayer times full TCP handshakes from the lab's Paris vantage to
// endpoints that answered the scan's control probe: Dial, then run the
// simulator until the exchange settles. It reports host µs and heap bytes
// allocated per handshake; the connection is closed outside the timing.
func handshakeLayer(tr *tracer, op int64, o *outcome, lab *topo.Lab, verdicts []measure.FragVerdict, into map[string]float64) {
	var targets []*topo.Endpoint
	for _, v := range verdicts {
		if v.Responsive && len(targets) < maxHandshakes {
			targets = append(targets, v.Endpoint)
		}
	}
	handshakes(tr, op, o, len(targets), func(i int) *hostnet.TCPConn {
		c := lab.Paris.Dial(targets[i].Addr, targets[i].Port, hostnet.DialOptions{})
		lab.Sim.Run()
		return c
	}, lab.Sim.Run, into)
}
