package main

import (
	"runtime"
	"runtime/metrics"
	"time"

	"tspusim/internal/hostnet"
	"tspusim/internal/netem"
	"tspusim/internal/packet"
	"tspusim/internal/sim"
	"tspusim/internal/tlsx"
	"tspusim/internal/tspu"
)

// runConfig is one invocation's parameters.
type runConfig struct {
	seed    uint64
	seconds float64 // measurement budget, split in half between the untraced and traced phases of a traced run
	trace   bool
}

// outcome is what a workload hands back to run.
type outcome struct {
	attempted, failed int
	problems          []string
	e2e               map[string]float64
	layer             map[string]float64
	tr                *tracer
}

// fail records a failed check: ops is how many ops it fails (0 for a check
// no op owns, which still makes the run incorrect).
func (o *outcome) fail(ops int, format string, args ...any) {
	o.failed += ops
	if len(o.problems) < 20 {
		o.problems = append(o.problems, sprintf(format, args...))
	}
}

// roundStats is one round of a phase: ops completed, the host time they
// took, packets the censor devices handled, and per-batch latencies.
type roundStats struct {
	ops     int
	ns      int64
	pkts    uint64
	batchUs []float64
}

// phaseStats accumulates one measured phase round by round, with the
// set-up samples and the heap peak.
type phaseStats struct {
	cur    roundStats
	rounds []roundStats
	ops    int
	setupS []float64
	heap   heapProbe
	rt0    rtSnap
}

func newPhase() *phaseStats {
	return &phaseStats{heap: newHeapProbe(), rt0: readRuntime()}
}

// endRound closes the current round.
func (p *phaseStats) endRound() {
	p.rounds = append(p.rounds, p.cur)
	p.ops += p.cur.ops
	p.cur = roundStats{}
}

// e2e turns the phase into the end-to-end metrics. Rates and percentiles
// are computed per round and reported as the median round, so one round
// disturbed by the host does not move the result.
func (p *phaseStats) e2e() map[string]float64 {
	var ops, pkts, p50, p99 []float64
	for _, r := range p.rounds {
		secs := seconds(r.ns)
		ops = append(ops, ratio(float64(r.ops), secs))
		pkts = append(pkts, ratio(float64(r.pkts), secs))
		p50 = append(p50, quantile(r.batchUs, 0.5))
		p99 = append(p99, quantile(r.batchUs, 0.99))
	}
	return map[string]float64{
		"setup_s":      quantile(p.setupS, 0.5),
		"ops_per_s":    quantile(ops, 0.5),
		"pkts_per_s":   quantile(pkts, 0.5),
		"batch_p50_us": quantile(p50, 0.5),
		"batch_p99_us": quantile(p99, 0.5),
		"peak_heap_mb": float64(p.heap.peak) / (1 << 20),
	}
}

// runtimeMetrics are the Go runtime's costs over the phase, per op and per
// round of the workload; the collections heapProbe forces are not counted.
func (p *phaseStats) runtimeMetrics(into map[string]float64) {
	rt := readRuntime()
	into["runtime.alloc_bytes_per_op"] = ratio(float64(rt.totalAlloc-p.rt0.totalAlloc), float64(p.ops))
	f := p.heap.forced
	into["runtime.gc_cycles"] = ratio(float64(rt.numGC-p.rt0.numGC-f.numGC), float64(len(p.rounds)))
	into["runtime.gc_cpu_frac"] = ratio(rt.gcCPU-p.rt0.gcCPU-f.gcCPU, rt.busyCPU-p.rt0.busyCPU-f.busyCPU)
}

// heapProbe tracks the highest live heap: the bytes the most recent
// garbage collection found reachable. Flood and scan sample it once per
// round, right after a collection they force outside the timed ops, when
// the round's state is largest (the flood's plateau table, a fully scanned
// lab); sampling between ops as well would only add the accident of when
// the collector last ran. Trials samples after every job instead, since its
// largest state is two jobs' labs in flight.
type heapProbe struct {
	s    []metrics.Sample
	peak uint64
	// forced is what the collections collect ran cost, so the runtime
	// metrics can leave them out.
	forced rtSnap
}

func newHeapProbe() heapProbe {
	return heapProbe{s: []metrics.Sample{{Name: "/gc/heap/live:bytes"}}}
}

func (h *heapProbe) sample() {
	metrics.Read(h.s)
	if v := h.s[0].Value.Uint64(); v > h.peak {
		h.peak = v
	}
}

// collect runs a garbage collection and samples the heap it leaves.
func (h *heapProbe) collect() {
	before := readRuntime()
	runtime.GC()
	after := readRuntime()
	h.forced.numGC += after.numGC - before.numGC
	h.forced.gcCPU += after.gcCPU - before.gcCPU
	h.forced.busyCPU += after.busyCPU - before.busyCPU
	h.sample()
}

// rtSnap is a point-in-time read of the runtime's cumulative counters.
type rtSnap struct {
	totalAlloc     uint64
	numGC          uint32
	gcCPU, busyCPU float64
}

// cpuSamples are the runtime's CPU-time estimates: GC, all, and idle (all
// minus idle is the CPU the process used).
var cpuSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
	{Name: "/cpu/classes/idle:cpu-seconds"},
}

func readRuntime() rtSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	metrics.Read(cpuSamples)
	return rtSnap{
		totalAlloc: ms.TotalAlloc,
		numGC:      ms.NumGC,
		gcCPU:      cpuSamples[0].Value.Float64(),
		busyCPU:    cpuSamples[1].Value.Float64() - cpuSamples[2].Value.Float64(),
	}
}

// timeEach times fn over every input, repeating the pass until at least
// minNs has elapsed, and returns ns per call (the median pass) and the
// loop's start and end for the trace.
func timeEach[T any](xs []T, minNs int64, fn func(T)) (nsPerCall float64, start, end int64) {
	if len(xs) == 0 {
		return 0, 0, 0
	}
	var passes []float64
	start = nanotime()
	for len(passes) < 3 || nanotime()-start < minNs {
		t0 := nanotime()
		for _, x := range xs {
			fn(x)
		}
		passes = append(passes, float64(nanotime()-t0)/float64(len(xs)))
	}
	return quantile(passes, 0.5), start, nanotime()
}

// replayMinNs is how long each per-layer replay loop runs at least.
const replayMinNs = int64(40 * time.Millisecond)

// maxFragmentInputs caps the packets FragmentCount is timed on: one call
// builds 45 packets, so a few hundred inputs already fill the time budget.
const maxFragmentInputs = 512

var sinkKey packet.FlowKey4
var sinkInt int

// packetLayer times the packet-layer calls the workloads make — Clone,
// FragmentCount into 45 (the §7.2 probe size) and FlowKey4Of — over a
// sample of the workload's own packets.
func packetLayer(tr *tracer, op int64, pkts []*packet.Packet, into map[string]float64) {
	var frag []*packet.Packet
	for _, p := range pkts {
		if p.TCP != nil && !p.IP.MF && p.IP.FragOffset == 0 && len(frag) < maxFragmentInputs {
			frag = append(frag, p)
		}
	}
	ns, s, e := timeEach(pkts, replayMinNs, func(p *packet.Packet) { sinkInt += int(p.Clone().IP.TTL) })
	tr.record(op, -1, "packet.clone", s, e)
	into["packet.clone_ns"] = ns
	ns, s, e = timeEach(frag, replayMinNs, func(p *packet.Packet) {
		fs, _ := packet.FragmentCount(p, 45)
		sinkInt += len(fs)
	})
	tr.record(op, -1, "packet.fragment", s, e)
	into["packet.fragment_ns"] = ns
	ns, s, e = timeEach(pkts, replayMinNs, func(p *packet.Packet) { sinkKey = packet.FlowKey4Of(p) })
	tr.record(op, -1, "packet.flowkey", s, e)
	into["packet.flowkey_ns"] = ns
}

// sniLayer times tlsx.ExtractSNI over ClientHello payloads the workload
// sent; it reports 0 when the workload carries none.
func sniLayer(tr *tracer, op int64, hellos [][]byte, into map[string]float64) {
	ns, s, e := timeEach(hellos, replayMinNs, func(b []byte) {
		sni, _ := tlsx.ExtractSNI(b)
		sinkInt += len(sni)
	})
	tr.record(op, -1, "tlsx.extract_sni", s, e)
	into["tlsx.sni_ns"] = ns
}

// isClientHello reports whether a TCP payload starts a TLS handshake
// record carrying a ClientHello.
func isClientHello(b []byte) bool {
	return len(b) > 5 && b[0] == tlsx.RecordTypeHandshake && b[5] == tlsx.HandshakeTypeClientHello
}

// simLayer times no-op events on a fresh simulator whose queue already
// holds depth pending events, the depth sampled from the workload: each
// step schedules one event ahead of the backlog and fires it.
func simLayer(tr *tracer, op int64, depth int, into map[string]float64) {
	s := sim.New()
	noop := func() {}
	for i := 0; i < depth; i++ {
		s.At(time.Duration(1<<50)+time.Duration(i), noop)
	}
	ns, st, e := timeEach(make([]struct{}, 4096), replayMinNs, func(struct{}) {
		s.After(time.Microsecond, noop)
		s.Step()
	})
	tr.record(op, -1, "sim.event", st, e)
	into["sim.event_ns"] = ns
}

// replayPipe is the netem.Pipe a replayed device sees: injected packets
// (fragment releases) are dropped, and callbacks are discarded because the
// replay never runs the clock's events.
type replayPipe struct{ s *sim.Sim }

func (p *replayPipe) Inject(*packet.Packet, netem.Direction) {}
func (p *replayPipe) Now() time.Duration                     { return p.s.Now() }
func (p *replayPipe) After(time.Duration, func())            {}

// devicePacket is one packet captured entering a device-bearing link, with
// the device chain it met and the virtual time it arrived.
type devicePacket struct {
	devs []*tspu.Device
	dir  netem.Direction
	at   time.Duration
	pkt  *packet.Packet
}

// handleLayer replays captured device-link packets through Device.Handle on
// twins built by twin (one per original device, same name and policy), in
// capture order with the replay clock following the capture timestamps, and
// reports ns per Handle call. Packets are cloned before timing since Handle
// may rewrite them.
func handleLayer(tr *tracer, op int64, caps []devicePacket, twin func(*tspu.Device, *sim.Sim) *tspu.Device, into map[string]float64) {
	if len(caps) == 0 {
		into["tspu.handle_ns"] = 0
		return
	}
	s := sim.New()
	pipe := &replayPipe{s: s}
	twins := map[*tspu.Device]*tspu.Device{}
	for _, c := range caps {
		for _, d := range c.devs {
			if twins[d] == nil {
				twins[d] = twin(d, s)
			}
		}
	}
	pkts := make([]*packet.Packet, len(caps))
	var total int64
	calls := 0
	start := nanotime()
	for pass := 0; pass < 3 || nanotime()-start < replayMinNs; pass++ {
		for i := range caps {
			pkts[i] = caps[i].pkt.Clone()
		}
		for i, c := range caps {
			if c.at > s.Now() {
				s.RunUntil(c.at)
			}
			t0 := nanotime()
			for _, d := range c.devs {
				if twins[d].Handle(pipe, pkts[i], c.dir) == netem.Drop {
					break
				}
			}
			total += nanotime() - t0
			calls += len(c.devs)
		}
		// Later passes replay the same packets into the warmed twins at the
		// same timestamps; the clock only moves forward, so start each pass
		// from a fresh set of twins and a fresh clock.
		s = sim.New()
		pipe.s = s
		for d := range twins {
			twins[d] = twin(d, s)
		}
	}
	tr.record(op, -1, "tspu.handle", start, nanotime())
	into["tspu.handle_ns"] = ratio(float64(total), float64(calls))
}

// labTwin builds a replay device configured like a lab device: same name,
// local direction (every lab device has A toward the local side) and the
// lab controller's policy. The lab's per-vantage trigger failure rates are
// not visible from outside the topology, so the twin never misses a
// trigger.
func labTwin(policy *tspu.Policy) func(*tspu.Device, *sim.Sim) *tspu.Device {
	return func(orig *tspu.Device, s *sim.Sim) *tspu.Device {
		d := tspu.NewDevice(tspu.Config{Name: orig.Name(), Sim: s, LocalDir: netem.AtoB})
		d.SetPolicy(policy)
		return d
	}
}

// sweepLayer times one Device.Sweep on dev.
func sweepLayer(tr *tracer, op int64, dev *tspu.Device, into map[string]float64) {
	t0 := nanotime()
	dev.Sweep()
	t1 := nanotime()
	tr.record(op, -1, "tspu.sweep", t0, t1)
	into["tspu.sweep_us"] = float64(t1-t0) / 1e3
}

// deviceCounts sums behaviour counters over devices.
type deviceCounts struct {
	handled               int
	pressure, timeout     int
	poolAllocs, poolReuse uint64
	triggers              int
}

func countDevices(devs []*tspu.Device) deviceCounts {
	var c deviceCounts
	for _, d := range devs {
		st := d.Stats()
		c.handled += st.Handled
		for _, n := range st.Triggers {
			c.triggers += n
		}
		c.pressure += d.PressureEvictions()
		c.timeout += d.ConntrackEvictions()
		a, r, _ := d.ConntrackPoolStats()
		c.poolAllocs += a
		c.poolReuse += r
	}
	return c
}

func (c deviceCounts) layer(into map[string]float64) {
	into["tspu.pool_reuse_ratio"] = ratio(float64(c.poolReuse), float64(c.poolAllocs+c.poolReuse))
	into["tspu.pressure_evictions"] = float64(c.pressure)
	into["tspu.timeout_evictions"] = float64(c.timeout)
	into["tspu.triggers"] = float64(c.triggers)
}

// zeroLayers sets the metrics of layers a workload never reaches to 0.
func zeroLayers(into map[string]float64, names ...string) {
	for _, n := range names {
		into[n] = 0
	}
}

// handshakes times n TCP handshakes: open(i) dials and runs the simulator
// until the exchange settles. Host time and heap bytes are measured around
// open alone; closing the connection and settling its teardown are not.
func handshakes(tr *tracer, op int64, o *outcome, n int, open func(i int) *hostnet.TCPConn, settle func(), into map[string]float64) {
	var ns int64
	var bytes uint64
	var a, b runtime.MemStats
	for i := 0; i < n; i++ {
		runtime.ReadMemStats(&a)
		t0 := nanotime()
		c := open(i)
		t1 := nanotime()
		runtime.ReadMemStats(&b)
		tr.record(op, -1, "hostnet.handshake", t0, t1)
		ns += t1 - t0
		bytes += b.TotalAlloc - a.TotalAlloc
		if c.State != hostnet.StateEstablished {
			o.fail(0, "handshake %d ended in state %v", i, c.State)
		}
		c.Close()
		settle()
	}
	into["hostnet.handshake_us"] = ratio(float64(ns)/1e3, float64(n))
	into["hostnet.alloc_bytes_per_handshake"] = ratio(float64(bytes), float64(n))
}

// seconds converts nanotime nanoseconds to seconds.
func seconds(ns int64) float64 { return float64(ns) / 1e9 }
