package engine

import (
	"fmt"
	"net/netip"
	"testing"
	"time"

	"tspusim/internal/netem"
	"tspusim/internal/packet"
	"tspusim/internal/sim"
	"tspusim/internal/tlsx"
	"tspusim/internal/tspu"
)

// The engine's contract is byte-equivalence: batching and sharding are
// performance structure, not behavior. Every test here drives the same
// seeded trace through the batch pipeline and a sequential reference and
// requires identical verdicts and wire bytes.

var (
	testLocal   = packet.MustAddr("10.0.0.2")
	testBlocked = packet.MustAddr("198.51.100.7")
)

func testRemotes() []netip.Addr {
	remotes := make([]netip.Addr, 0, 16)
	for i := 1; i <= 16; i++ {
		remotes = append(remotes, packet.MustAddr(fmt.Sprintf("203.0.113.%d", i)))
	}
	return remotes
}

// testStream covers the datapath branches across many host pairs, so
// packets spread over all lanes.
func testStream(seed uint64, n int) []*packet.Packet {
	rng := sim.NewRand(seed)
	remotes := testRemotes()
	snis := []string{
		"facebook.com", "api.twitter.com", "TWITTER.COM",
		"play.google.com", "fbcdn.net", "meduza.io", "example.org", "",
	}
	pkts := make([]*packet.Packet, 0, n)
	for len(pkts) < n {
		remote := remotes[rng.Intn(len(remotes))]
		sport := uint16(20000 + rng.Intn(32))
		switch rng.Intn(9) {
		case 0:
			pkts = append(pkts, packet.NewTCP(testLocal, remote, sport, 443, packet.FlagSYN, 1, 0, nil))
		case 1:
			pkts = append(pkts, packet.NewTCP(remote, testLocal, 443, sport, packet.FlagsSYNACK, 1, 2, nil))
		case 2:
			spec := &tlsx.ClientHelloSpec{ServerName: snis[rng.Intn(len(snis))]}
			pkts = append(pkts, packet.NewTCP(testLocal, remote, sport, 443, packet.FlagsPSHACK, 2, 2, spec.Build()))
		case 3:
			soup := make([]byte, 1+rng.Intn(512))
			for i := range soup {
				soup[i] = byte(rng.Uint64())
			}
			pkts = append(pkts, packet.NewTCP(testLocal, remote, sport, 443, packet.FlagsPSHACK, 2, 2, soup))
		case 4:
			pkts = append(pkts, packet.NewTCP(remote, testLocal, 443, sport, packet.FlagsPSHACK, 9, 9, []byte("HTTP/1.1 200 OK")))
		case 5:
			pay := make([]byte, 1200)
			pay[0] = 0xc0
			for i := 1; i < 16; i++ {
				pay[i] = byte(rng.Uint64())
			}
			pkts = append(pkts, packet.NewUDP(testLocal, remote, sport, 443, pay))
		case 6:
			pkts = append(pkts, packet.NewTCP(testLocal, remote, sport, 443, packet.FlagsPSHACK, 9, 9, make([]byte, rng.Intn(1400))))
		case 7:
			pkts = append(pkts, packet.NewTCP(testLocal, testBlocked, sport, 443, packet.FlagSYN, 1, 0, nil))
		case 8:
			if rng.Bool(0.5) {
				pkts = append(pkts, packet.NewTCP(remote, testLocal, 443, sport, packet.FlagACK, 5, 5, nil))
			} else {
				pkts = append(pkts, packet.NewTCP(remote, testLocal, 443, sport, packet.FlagSYN, 5, 0, nil))
			}
		}
	}
	return pkts
}

func testDir(p *packet.Packet) netem.Direction {
	if p.IP.Src == testLocal {
		return netem.AtoB
	}
	return netem.BtoA
}

// testDevice builds a per-flow-random device: random outcomes depend only on
// flow identity, which is what makes batch order irrelevant.
func testDevice(s *sim.Sim, name string, shards int, flowSeed uint64) *tspu.Device {
	d := tspu.NewDevice(tspu.Config{
		Name:        name,
		Sim:         s,
		LocalDir:    netem.AtoB,
		Shards:      shards,
		PerFlowRand: true,
		FlowSeed:    flowSeed,
		FailureRates: map[tspu.BlockType]float64{
			tspu.SNI1: 0.05, tspu.SNI2: 0.05, tspu.SNI4: 0.03, tspu.QUICBlock: 0.06, tspu.IPBlock: 0.02,
		},
	})
	ctl := tspu.NewController(nil)
	ctl.Register(d)
	ctl.Update(func(p *tspu.Policy) {
		p.SNI1Domains.Add("facebook.com", "twitter.com", "meduza.io")
		p.SNI2Domains.Add("play.google.com")
		p.SNI4Domains.Add("twitter.com", "fbcdn.net")
		p.BlockedIPs[testBlocked] = true
	})
	return d
}

// nullPipe is the sequential reference's Pipe: scheduling goes straight to
// the simulator, injection is dropped (the reference streams carry no
// fragments).
type nullPipe struct{ s *sim.Sim }

func (p nullPipe) Inject(pkt *packet.Packet, dir netem.Direction) {}
func (p nullPipe) Now() time.Duration                             { return p.s.Now() }
func (p nullPipe) After(d time.Duration, fn func())               { p.s.After(d, fn) }

// refChainRun mirrors netem.Link.process over a device slice.
func refChainRun(devs []*tspu.Device, pipe netem.Pipe, pkt *packet.Packet, dir netem.Direction) netem.Action {
	idx, step := 0, 1
	if dir == netem.BtoA {
		idx, step = len(devs)-1, -1
	}
	for ; idx >= 0 && idx < len(devs); idx += step {
		if devs[idx].Handle(pipe, pkt, dir) == netem.Drop {
			return netem.Drop
		}
	}
	return netem.Pass
}

// runSequential produces the reference verdict+wire log.
func runSequential(devs []*tspu.Device, s *sim.Sim, stream []*packet.Packet) []string {
	pipe := nullPipe{s: s}
	log := make([]string, 0, len(stream))
	for _, src := range stream {
		p := src.Clone()
		act := refChainRun(devs, pipe, p, testDir(p))
		wire, _ := p.Marshal()
		log = append(log, fmt.Sprintf("%v %x", act, wire))
	}
	return log
}

// runBatched produces the engine verdict+wire log, processing in batches of
// batchSize.
func runBatched(e *Engine, stream []*packet.Packet, batchSize int) []string {
	log := make([]string, 0, len(stream))
	flush := func() {
		for _, it := range e.Process() {
			wire, _ := it.Pkt.Marshal()
			log = append(log, fmt.Sprintf("%v %x", it.Verdict, wire))
		}
	}
	queued := 0
	for _, src := range stream {
		p := src.Clone()
		if !e.Push(p, testDir(p)) {
			flush()
			queued = 0
			e.Push(p, testDir(p))
		}
		queued++
		if queued == batchSize {
			flush()
			queued = 0
		}
	}
	flush()
	return log
}

func compareLogs(t *testing.T, label string, ref, got []string) {
	t.Helper()
	if len(ref) != len(got) {
		t.Fatalf("%s: %d reference packets, %d engine packets", label, len(ref), len(got))
	}
	for i := range ref {
		if ref[i] != got[i] {
			t.Fatalf("%s: packet %d diverged:\nsequential: %s\nbatched:    %s", label, i, ref[i], got[i])
		}
	}
}

// TestBatchSequentialEquivalence is the core property: the batch pipeline is
// byte-equivalent to packet-at-a-time Device.Handle, across batch sizes.
func TestBatchSequentialEquivalence(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		for _, batchSize := range []int{1, 7, 64, 512} {
			stream := testStream(seed, 1500)
			seqSim := sim.New()
			seqDev := testDevice(seqSim, "seq", 8, seed)
			ref := runSequential([]*tspu.Device{seqDev}, seqSim, stream)

			batSim := sim.New()
			batDev := testDevice(batSim, "bat", 8, seed)
			e := New(Config{Sim: batSim, Devices: []*tspu.Device{batDev}})
			got := runBatched(e, stream, batchSize)
			compareLogs(t, fmt.Sprintf("seed=%d batch=%d", seed, batchSize), ref, got)
		}
	}
}

// TestMultiDeviceChainEquivalence runs a two-TSPU chain (the asymmetric
// multi-device path of §7) batched vs sequential, including direction-
// dependent traversal order.
func TestMultiDeviceChainEquivalence(t *testing.T) {
	stream := testStream(11, 1500)
	seqSim := sim.New()
	seqDevs := []*tspu.Device{
		testDevice(seqSim, "edge", 4, 100),
		testDevice(seqSim, "core", 4, 200),
	}
	ref := runSequential(seqDevs, seqSim, stream)

	batSim := sim.New()
	batDevs := []*tspu.Device{
		testDevice(batSim, "edge", 4, 100),
		testDevice(batSim, "core", 4, 200),
	}
	e := New(Config{Sim: batSim, Devices: batDevs})
	got := runBatched(e, stream, 64)
	compareLogs(t, "two-device chain", ref, got)
}

// TestShardCountDeterminism pins that lane count is invisible in behavior.
func TestShardCountDeterminism(t *testing.T) {
	stream := testStream(6, 2000)
	var ref []string
	for _, shards := range []int{1, 4, 8} {
		s := sim.New()
		d := testDevice(s, "s", shards, 6)
		e := New(Config{Sim: s, Devices: []*tspu.Device{d}})
		got := runBatched(e, stream, 256)
		if ref == nil {
			ref = got
			continue
		}
		compareLogs(t, fmt.Sprintf("shards=%d", shards), ref, got)
	}
}

// TestFragmentReleaseAndTimeout exercises the Pipe on a two-device chain:
// fragment queues fill across batches, the completed queue re-enters the
// chain via Inject one position past the injecting device (so the
// downstream device, and only it, sees the released fragments), and the
// timeout scheduled through After discards an incomplete queue once the
// simulator runs past it.
func TestFragmentReleaseAndTimeout(t *testing.T) {
	s := sim.New()
	edge, core := testDevice(s, "edge", 4, 9), testDevice(s, "core", 4, 10)
	e := New(Config{Sim: s, Devices: []*tspu.Device{edge, core}})

	remote := packet.MustAddr("203.0.113.9")
	mk := func(id uint16) []*packet.Packet {
		p := packet.NewTCP(testLocal, remote, 41000, 7547, packet.FlagSYN, 1, 0, nil)
		p.IP.ID = id
		frags, err := packet.FragmentCount(p, 2)
		if err != nil {
			t.Fatal(err)
		}
		return frags
	}
	fragBuffers := func() (int, int) { return edge.Stats().FragBuffers, core.Stats().FragBuffers }

	// Complete queue: the edge holds both fragments, then releases them
	// into the core, which buffers and releases them in turn.
	frags := mk(900)
	e.Push(frags[0], netem.AtoB)
	for _, it := range e.Process() {
		if it.Verdict != netem.Drop {
			t.Fatalf("buffered fragment verdict = %v, want Drop", it.Verdict)
		}
	}
	if eb, cb := fragBuffers(); eb != 1 || cb != 0 {
		t.Fatalf("fragments seen (edge, core) = (%d, %d) before the queue completed, want (1, 0)", eb, cb)
	}
	e.Push(frags[1], netem.AtoB)
	e.Process()
	if eb, cb := fragBuffers(); eb != 2 || cb != 2 {
		t.Fatalf("fragments seen (edge, core) = (%d, %d) after release, want (2, 2)", eb, cb)
	}
	if edge.PendingFragQueues() != 0 || core.PendingFragQueues() != 0 {
		t.Fatalf("open fragment queues (edge, core) = (%d, %d), want (0, 0)", edge.PendingFragQueues(), core.PendingFragQueues())
	}

	// BtoA travels core first: the core's release re-enters at the edge.
	frags = mk(902)
	for _, f := range frags {
		f.IP.Src, f.IP.Dst = remote, testLocal
		e.Push(f, netem.BtoA)
	}
	e.Process()
	if eb, cb := fragBuffers(); eb != 4 || cb != 4 {
		t.Fatalf("fragments seen (edge, core) = (%d, %d) after a BtoA release, want (4, 4)", eb, cb)
	}

	// Incomplete queue: discarded by the timeout the edge scheduled through
	// After once the simulator runs past the 5 s fragment timeout; nothing
	// reaches the core.
	frags = mk(901)
	e.Push(frags[0], netem.AtoB)
	e.Process()
	if edge.PendingFragQueues() != 1 {
		t.Fatalf("open fragment queues = %d, want 1", edge.PendingFragQueues())
	}
	s.RunBatch(10*time.Second, 1<<20)
	if edge.PendingFragQueues() != 0 {
		t.Fatalf("fragment queue survived its timeout: %d open", edge.PendingFragQueues())
	}
	if _, cb := fragBuffers(); cb != 4 {
		t.Fatalf("core saw %d fragments, want 4: the incomplete queue leaked downstream", cb)
	}
}

// TestPushRingFull pins the backpressure contract.
func TestPushRingFull(t *testing.T) {
	s := sim.New()
	d := testDevice(s, "ring", 1, 1)
	e := New(Config{Sim: s, Devices: []*tspu.Device{d}, BatchSize: 4})
	p := packet.NewTCP(testLocal, packet.MustAddr("203.0.113.1"), 40000, 443, packet.FlagSYN, 1, 0, nil)
	for i := 0; i < 4; i++ {
		if !e.Push(p.Clone(), netem.AtoB) {
			t.Fatalf("push %d refused below capacity", i)
		}
	}
	if e.Push(p.Clone(), netem.AtoB) {
		t.Fatal("push accepted beyond capacity")
	}
	if got := len(e.Process()); got != 4 {
		t.Fatalf("processed %d, want 4", got)
	}
	if !e.Push(p.Clone(), netem.AtoB) {
		t.Fatal("push refused after Process drained the ring")
	}
}

// TestProcessSteadyStateDoesNotAllocate pins the engine's own per-batch
// bookkeeping (scatter queues, pipes, counters) into the zero-allocation
// contract, on pass-through traffic over warmed flows.
func TestProcessSteadyStateDoesNotAllocate(t *testing.T) {
	s := sim.New()
	d := testDevice(s, "alloc", 8, 3)
	e := New(Config{Sim: s, Devices: []*tspu.Device{d}, BatchSize: 64})
	remotes := testRemotes()
	pkts := make([]*packet.Packet, 64)
	for i := range pkts {
		pkts[i] = packet.NewTCP(testLocal, remotes[i%len(remotes)], uint16(20000+i), 443, packet.FlagsPSHACK, 9, 9, []byte("not a client hello, just bytes"))
	}
	run := func() {
		for _, p := range pkts {
			e.Push(p, netem.AtoB)
		}
		e.Process()
	}
	for i := 0; i < 16; i++ {
		run() // warm flow entries, lane queues, and pools
	}
	if allocs := testing.AllocsPerRun(300, run); allocs != 0 {
		t.Fatalf("steady-state Process allocates %v/op, want 0", allocs)
	}
}
