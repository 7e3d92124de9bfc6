package main

import (
	"net/netip"
	"runtime"
	"time"

	"tspusim/internal/engine"
	"tspusim/internal/measure"
	"tspusim/internal/netem"
	"tspusim/internal/packet"
	"tspusim/internal/sim"
	"tspusim/internal/tspu"
)

// The flood workload is §8's provisioning load, shaped like exhaustscale: a
// SYN flood of unique host pairs pushed in 512-packet batches through
// engine.New over one sharded tspu.Device that already holds an SNI-I block
// on a victim flow. The virtual clock advances per batch and auto-sweep is
// on. A round is two rows on fresh devices: one with an unbounded flow
// table, whose population plateaus at about 300k entries once the 60 s
// SYN-sent timeout starts reclaiming the tail, and one bounded well below
// that plateau. The op is one flood flow.
const (
	floodRate      = 5000             // new flows per virtual second
	floodDuration  = 70 * time.Second // below the hold's 75 s, above the 60 s SYN timeout
	floodBatch     = 512
	floodShards    = 8
	floodBound     = 1 << 16 // the bounded row's table size, below the plateau
	floodSweep     = time.Second
	floodSetupReps = 15               // extra set-ups per run, so setup_s is a median of many
	floodPlateau   = 61 * time.Second // from here on the table churns at its plateau
	floodSample    = 20000            // flows replayed through Device.Handle
)

// floodBounds are a round's rows: unbounded, then bounded.
var floodBounds = []int{0, floodBound}

var (
	floodVictimSrc = netip.AddrFrom4([4]byte{10, 200, 0, 2})
	floodVictimDst = netip.AddrFrom4([4]byte{203, 0, 113, 10})
)

// floodInput is the flood the seed generates. Flow f's source is
// 11.0.0.0/8 plus an affine bijection of f over 24 bits, so every flow is a
// distinct host pair and none collides with the victim.
type floodInput struct {
	mul, add    uint32
	dsts        [16]netip.Addr
	flowSeed    uint64
	victimSport uint16
}

func newFloodInput(seed uint64) *floodInput {
	r := sim.NewRand(sim.StreamSeed(seed, "perfbench/flood"))
	in := &floodInput{
		mul:         uint32(r.Uint64()) | 1,
		add:         uint32(r.Uint64()),
		flowSeed:    r.Uint64(),
		victimSport: uint16(r.IntRange(40000, 50000)),
	}
	for i := range in.dsts {
		in.dsts[i] = netip.AddrFrom4([4]byte{198, 18, byte(r.Intn(256)), byte(1 + r.Intn(254))})
	}
	return in
}

// flows is the number of flows in one row.
func (in *floodInput) flows() int { return floodRate * int(floodDuration/time.Second) }

// set rewrites p into flow f's SYN.
func (in *floodInput) set(p *packet.Packet, f int) {
	x := (uint32(f)*in.mul + in.add) & (1<<24 - 1)
	p.IP.Src = netip.AddrFrom4([4]byte{11, byte(x >> 16), byte(x >> 8), byte(x)})
	p.IP.Dst = in.dsts[x&15]
	p.TCP.SrcPort = 1024 + uint16(x%60000)
}

// syn returns a fresh packet for flow f.
func (in *floodInput) syn(f int) *packet.Packet {
	p := packet.NewTCP(floodVictimSrc, floodVictimDst, 1, 80, packet.FlagSYN, 1, 0, nil)
	in.set(p, f)
	return p
}

// newFloodDevice builds the flood's censor: sharded, per-flow randomness,
// auto-sweep on, SNI-I policy for the victim's domain.
func newFloodDevice(in *floodInput, s *sim.Sim, bound int) *tspu.Device {
	dev := tspu.NewDevice(tspu.Config{
		Name:        "flood",
		Sim:         s,
		LocalDir:    netem.AtoB,
		Shards:      floodShards,
		PerFlowRand: true,
		FlowSeed:    in.flowSeed,
	})
	ctl := tspu.NewController(nil)
	ctl.Register(dev)
	ctl.Update(func(p *tspu.Policy) { p.SNI1Domains.Add(measure.DomainSNI1) })
	dev.SetMaxFlows(bound)
	dev.EnableAutoSweep(floodSweep)
	return dev
}

// victimPackets is the victim's handshake and triggering ClientHello.
func (in *floodInput) victimPackets() []*packet.Packet {
	sp := in.victimSport
	return []*packet.Packet{
		packet.NewTCP(floodVictimSrc, floodVictimDst, sp, 443, packet.FlagSYN, 1, 0, nil),
		packet.NewTCP(floodVictimDst, floodVictimSrc, 443, sp, packet.FlagsSYNACK, 1, 2, nil),
		packet.NewTCP(floodVictimSrc, floodVictimDst, sp, 443, packet.FlagsPSHACK, 2, 2, measure.CH(measure.DomainSNI1)),
	}
}

var victimDirs = []netem.Direction{netem.AtoB, netem.BtoA, netem.AtoB}

// floodEnv is one row's environment: the set-up that setup_s times.
type floodEnv struct {
	s    *sim.Sim
	dev  *tspu.Device
	e    *engine.Engine
	held bool // the victim's SNI-I hold was in place after set-up
}

func newFloodEnv(in *floodInput, bound int) *floodEnv {
	s := sim.New()
	dev := newFloodDevice(in, s, bound)
	env := &floodEnv{s: s, dev: dev, e: engine.New(engine.Config{Sim: s, Devices: []*tspu.Device{dev}, BatchSize: floodBatch})}
	for i, p := range in.victimPackets() {
		env.e.Push(p, victimDirs[i])
		env.e.Process()
	}
	env.held = env.probe(in)
	return env
}

// probe sends a downstream data packet on the victim flow and reports
// whether the device rewrote it to RST/ACK, the SNI-I hold's signature.
func (env *floodEnv) probe(in *floodInput) bool {
	p := packet.NewTCP(floodVictimDst, floodVictimSrc, 443, in.victimSport, packet.FlagsPSHACK, 100, 3, []byte("probe"))
	env.e.Push(p, netem.BtoA)
	env.e.Process()
	return p.TCP.Flags == packet.FlagsRSTACK
}

// floodRow is one row's behaviour: everything here is a pure function of
// the seed and the bound, so rows of one run must agree exactly.
type floodRow struct {
	bound, peak                         int
	held, survived                      bool
	pressure, timeout, leaked, triggers int
	allocs, reuses                      uint64
	events, poolReuses                  uint64
}

// floodTrace collects the traced run's engine and device samples.
type floodTrace struct {
	tr                  *tracer
	pushNs, procNs      int64
	pkts                int
	sweepUs, plainUs    []float64
	mallocs             uint64
	plateauBatches      int
	plateauSweepUs      float64
	fragPeak            int
	depths              []float64
	havePlateauSweepRow bool
}

// floodRowRun runs one row and its checks' data collection. ft is nil on
// the untraced run.
func floodRowRun(in *floodInput, bound int, ph *phaseStats, ft *floodTrace, op int64) floodRow {
	var tr *tracer
	if ft != nil {
		tr = ft.tr
	}
	sp := tr.begin(op, -1, "flood.setup")
	t0 := nanotime()
	env := newFloodEnv(in, bound)
	ph.setupS = append(ph.setupS, seconds(nanotime()-t0))
	tr.end(sp)
	row := floodRow{bound: bound, held: env.held}

	pkts := make([]*packet.Packet, floodBatch)
	for i := range pkts {
		pkts[i] = in.syn(0)
	}
	step := time.Duration(float64(floodBatch) / float64(floodRate) * float64(time.Second))
	start := env.s.Now()
	lastSweep := start
	total := in.flows()
	pk0, _, _ := env.e.Totals()
	var ms0, ms1 runtime.MemStats
	rowStart := nanotime()
	for n, batch := 0, int64(0); n < total; batch++ {
		m := min(floodBatch, total-n)
		bop := op + 1 + batch
		root := tr.begin(bop, -1, "flood.batch")
		for j := 0; j < m; j++ {
			in.set(pkts[j], n+j)
		}
		// Mirror of the device's per-lane sweep rule (every lane sees
		// packets in every 512-packet batch), to split sweep batches from
		// plain ones.
		now := env.s.Now()
		sweep := now-lastSweep >= floodSweep
		if sweep {
			lastSweep = now
		}
		plateau := ft != nil && now >= floodPlateau
		if plateau {
			runtime.ReadMemStats(&ms0)
		}
		sPush := tr.begin(bop, root, "engine.push")
		b0 := nanotime()
		for j := 0; j < m; j++ {
			env.e.Push(pkts[j], netem.AtoB)
		}
		b1 := nanotime()
		tr.end(sPush)
		sProc := tr.begin(bop, root, "engine.process")
		b2 := nanotime()
		env.e.Process()
		b3 := nanotime()
		tr.end(sProc)
		if plateau {
			runtime.ReadMemStats(&ms1)
			ft.mallocs += ms1.Mallocs - ms0.Mallocs
			ft.plateauBatches++
		}
		us := float64(b1-b0+b3-b2) / 1e3
		ph.cur.batchUs = append(ph.cur.batchUs, us)
		n += m
		sRun := tr.begin(bop, root, "sim.run_until")
		env.s.RunUntil(start + time.Duration(n/floodBatch)*step)
		tr.end(sRun)
		if sz := env.dev.ConntrackSize(); sz > row.peak {
			row.peak = sz
		}
		if ft != nil {
			ft.pushNs += b1 - b0
			ft.procNs += b3 - b2
			ft.pkts += m
			if sweep {
				ft.sweepUs = append(ft.sweepUs, us)
			} else {
				ft.plainUs = append(ft.plainUs, us)
			}
			ft.fragPeak = max(ft.fragPeak, env.dev.PendingFragQueues())
			ft.depths = append(ft.depths, float64(env.s.Pending()))
		}
		tr.end(root)
	}
	ph.cur.ns += nanotime() - rowStart
	ph.cur.ops += total
	pk1, _, _ := env.e.Totals()
	ph.cur.pkts += pk1 - pk0
	ph.heap.collect()

	// One explicit sweep at the plateau, timed: the per-sweep cost that
	// grows with table size.
	if ft != nil && bound == 0 && !ft.havePlateauSweepRow {
		s0 := nanotime()
		env.dev.Sweep()
		s1 := nanotime()
		tr.record(op, -1, "tspu.sweep", s0, s1)
		ft.plateauSweepUs = float64(s1-s0) / 1e3
		ft.havePlateauSweepRow = true
	}

	// Probe the hold, then age everything out: the table must drain.
	row.survived = env.probe(in)
	env.s.RunUntil(env.s.Now() + 600*time.Second)
	env.dev.Sweep()
	row.leaked = env.dev.ConntrackSize()
	c := countDevices([]*tspu.Device{env.dev})
	row.pressure, row.timeout, row.triggers = c.pressure, c.timeout, c.triggers
	row.allocs, row.reuses = c.poolAllocs, c.poolReuse
	row.events, row.poolReuses = env.s.Processed(), env.s.PoolReuses()
	return row
}

// checkFloodRow holds a row to §8's invariants and the table's accounting.
func checkFloodRow(r floodRow) string {
	switch {
	case !r.held:
		return "SNI-I hold not installed on the victim flow"
	case r.bound == 0 && !r.survived:
		return "victim hold lost on the unbounded table"
	case r.bound > 0 && r.survived:
		return sprintf("victim hold survived a flood far above the %d-flow bound", r.bound)
	case r.leaked != 0:
		return sprintf("%d flows leaked past every timeout", r.leaked)
	case r.allocs+r.reuses != uint64(r.pressure+r.timeout):
		return sprintf("pool allocs %d + reuses %d != pressure %d + timeout %d evictions",
			r.allocs, r.reuses, r.pressure, r.timeout)
	}
	return ""
}

func runFlood(cfg runConfig) (*outcome, error) {
	o := &outcome{}
	in := newFloodInput(cfg.seed)
	budget := cfg.seconds
	if cfg.trace {
		budget /= 2
	}
	ph := newPhase()
	for i := 0; i < floodSetupReps; i++ {
		t0 := nanotime()
		env := newFloodEnv(in, floodBound)
		ph.setupS = append(ph.setupS, seconds(nanotime()-t0))
		if !env.held {
			o.fail(0, "flood: SNI-I hold not installed on the victim flow")
		}
	}

	var first []floodRow
	round := func(ph *phaseStats, ft *floodTrace, op int64) []floodRow {
		var rows []floodRow
		for i, b := range floodBounds {
			r := floodRowRun(in, b, ph, ft, op+int64(i)*int64(in.flows()))
			o.attempted += in.flows()
			if msg := checkFloodRow(r); msg != "" {
				o.fail(in.flows(), "flood: row bound=%d: %s", b, msg)
			} else if first != nil && r != first[i] {
				o.fail(in.flows(), "flood: row bound=%d behaved differently from the first round: %+v vs %+v", b, r, first[i])
			}
			rows = append(rows, r)
		}
		if first == nil {
			first = rows
		}
		ph.endRound()
		return rows
	}
	ph.rt0 = readRuntime() // runtime costs count from the first op, not from set-up
	start := nanotime()
	for seconds(nanotime()-start) < budget || len(ph.rounds) == 0 {
		round(ph, nil, 0)
	}
	o.e2e = ph.e2e()
	if !cfg.trace {
		return o, nil
	}

	layer := map[string]float64{}
	ph.runtimeMetrics(layer)
	untracedOps := o.e2e["ops_per_s"]
	ft := &floodTrace{tr: newTracer()}
	tph := newPhase()
	var rows []floodRow
	op := int64(0)
	start = nanotime()
	for seconds(nanotime()-start) < budget || len(tph.rounds) == 0 {
		rs := round(tph, ft, op)
		if rows == nil {
			rows = rs
		}
		op += int64(len(floodBounds)) * int64(in.flows()+1)
	}
	layer["trace.overhead_frac"] = 1 - ratio(tph.e2e()["ops_per_s"], untracedOps)
	tr := ft.tr

	layer["engine.push_ns"] = ratio(float64(ft.pushNs), float64(ft.pkts))
	layer["engine.process_ns_per_pkt"] = ratio(float64(ft.procNs), float64(ft.pkts))
	layer["engine.sweep_batch_us"] = quantile(ft.sweepUs, 0.5)
	layer["engine.plain_batch_us"] = quantile(ft.plainUs, 0.5)
	layer["engine.allocs_per_batch"] = ratio(float64(ft.mallocs), float64(ft.plateauBatches))
	layer["tspu.sweep_us"] = ft.plateauSweepUs

	var c deviceCounts
	var events, reuses uint64
	peak := 0
	for _, r := range rows {
		c.pressure += r.pressure
		c.timeout += r.timeout
		c.triggers += r.triggers
		c.poolAllocs += r.allocs
		c.poolReuse += r.reuses
		events += r.events
		reuses += r.poolReuses
		peak = max(peak, r.peak)
	}
	c.layer(layer)
	layer["tspu.conntrack_peak"] = float64(peak)
	layer["tspu.frag_queues_peak"] = float64(ft.fragPeak)
	layer["sim.events"] = float64(events)
	layer["sim.events_per_op"] = ratio(float64(events), float64(len(rows)*in.flows()))
	layer["sim.pool_reuse_ratio"] = ratio(float64(reuses), float64(events))

	// Replays over the flood's own packets: the victim's, then the first
	// floodSample flood flows at their batch's virtual time. There is one
	// device, so every packet names the same placeholder and the twin
	// builder ignores it.
	sample := make([]*packet.Packet, 0, floodSample+3)
	caps := make([]devicePacket, 0, floodSample+3)
	dev := []*tspu.Device{nil}
	step := float64(time.Second) * floodBatch / floodRate
	for i, p := range in.victimPackets() {
		caps = append(caps, devicePacket{devs: dev, dir: victimDirs[i], pkt: p})
	}
	for f := 0; f < floodSample; f++ {
		p := in.syn(f)
		sample = append(sample, p)
		caps = append(caps, devicePacket{devs: dev, dir: netem.AtoB, at: time.Duration(float64(f/floodBatch) * step), pkt: p})
	}
	packetLayer(tr, op, sample, layer)
	sniLayer(tr, op, [][]byte{in.victimPackets()[2].TCP.Payload}, layer)
	simLayer(tr, op, int(quantile(ft.depths, 0.5)), layer)
	handleLayer(tr, op, caps, func(_ *tspu.Device, s *sim.Sim) *tspu.Device { return newFloodDevice(in, s, 0) }, layer)
	zeroLayers(layer, "netem.hops_per_op", "netem.lookup_ns", "hostnet.handshake_us",
		"hostnet.alloc_bytes_per_handshake", "topo.build_alloc_mb", "fleet.job_s_p50", "fleet.busy_ratio", "fleet.retries")
	o.layer = layer
	o.tr = tr
	return o, nil
}
