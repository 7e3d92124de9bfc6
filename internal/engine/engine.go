// Package engine is the batched multi-device packet pipeline: the seam that
// turns the one-packet-one-call simulator datapath into a line-rate system.
// Packets are queued into a fixed-capacity ring, keyed once with the two-word
// packet.FlowKey4, scattered by canonical host-pair hash into lanes, and run
// lane by lane through an in-order chain of TSPU devices via their sharded
// entry point — every lane owning a disjoint slice of conntrack, fragment,
// and counter state, so a lane's packets stay inside one conntrack shard.
//
// The chain semantics mirror netem.Link exactly: packets traveling AtoB
// traverse device 0 first, BtoA the highest index first; a Drop verdict stops
// traversal; a device injecting a packet (fragment release) re-enters the
// chain one position past itself in the packet's direction of travel.
// Everything runs on the caller's goroutine, and the virtual clock does not
// move inside Process, so devices schedule straight onto the simulator.
//
// Lane-major order reorders flows relative to push order, which is
// invisible in behavior because lanes are disjoint, per-lane processing
// preserves arrival order, and devices built for the engine derive their
// randomness per flow (tspu.Config.PerFlowRand): a trace produces one
// verdict stream whether it is run in batches or packet-at-a-time, over any
// shard count.
package engine

import (
	"fmt"
	"time"

	"tspusim/internal/netem"
	"tspusim/internal/packet"
	"tspusim/internal/sim"
	"tspusim/internal/tspu"
)

// Config configures an Engine.
type Config struct {
	// Sim supplies virtual time and receives the devices' scheduled work.
	Sim *sim.Sim
	// Devices is the in-path chain, physical order A-side to B-side. All
	// devices must be built with the same tspu.Config.Shards so lane
	// ownership lines up across the chain.
	Devices []*tspu.Device
	// BatchSize is the ring capacity (default 512).
	BatchSize int
}

// Item is one packet descriptor in the ring. Verdict is valid after the
// Process call that consumed the item returns.
type Item struct {
	Pkt     *packet.Packet
	Dir     netem.Direction
	Verdict netem.Action
	key     packet.FlowKey4
}

// Engine is the batch pipeline. It is driven from the simulator's thread:
// Push/Process must not be called concurrently.
type Engine struct {
	sim     *sim.Sim
	devices []*tspu.Device
	mask    uint64

	items []Item
	n     int
	// lanes[l] holds the indexes of this batch's items owned by lane l, in
	// arrival order.
	lanes [][]int32
	// pipes[d] is the Pipe device d receives; prebuilt so the hot loop takes
	// addresses instead of allocating.
	pipes []pipe

	// packets / batches / drops count lifetime totals.
	packets uint64
	batches uint64
	drops   uint64
}

// New builds an engine. It panics on an empty chain or mismatched device
// lane counts — both are construction bugs, not runtime conditions.
func New(cfg Config) *Engine {
	if cfg.Sim == nil {
		panic("engine: Config.Sim is required")
	}
	if len(cfg.Devices) == 0 {
		panic("engine: no devices")
	}
	lanes := cfg.Devices[0].NumLanes()
	for _, d := range cfg.Devices[1:] {
		if d.NumLanes() != lanes {
			panic(fmt.Sprintf("engine: device %q has %d lanes, want %d", d.Name(), d.NumLanes(), lanes))
		}
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 512
	}
	e := &Engine{
		sim:     cfg.Sim,
		devices: cfg.Devices,
		mask:    uint64(lanes - 1),
		items:   make([]Item, cfg.BatchSize),
		lanes:   make([][]int32, lanes),
		pipes:   make([]pipe, len(cfg.Devices)),
	}
	for d := range e.pipes {
		e.pipes[d] = pipe{e: e, idx: d}
	}
	return e
}

// Totals reports lifetime packets pushed through Process, batches run, and
// Drop verdicts.
func (e *Engine) Totals() (packets, batches, drops uint64) {
	return e.packets, e.batches, e.drops
}

// Push queues one packet for the next Process call. It reports false when
// the ring is full, in which case the caller must Process (or grow the
// batch) before retrying; the packet was not queued.
//
//tspuvet:hotpath
func (e *Engine) Push(pkt *packet.Packet, dir netem.Direction) bool {
	if e.n == len(e.items) {
		return false
	}
	it := &e.items[e.n]
	//tspuvet:retains ring item owns the packet until Process drains the batch and the caller reclaims it
	it.Pkt = pkt
	it.Dir = dir
	it.Verdict = netem.Pass
	e.n++
	return true
}

// Process runs every queued packet through the device chain and returns the
// items with verdicts filled in, in push order. The returned slice aliases
// the ring: it is valid until the next Push. The simulator must be idle (not
// mid-event) for the duration of the call.
//
//tspuvet:hotpath
func (e *Engine) Process() []Item {
	items := e.items[:e.n]
	if e.n == 0 {
		return items
	}
	// Key and scatter. One FlowKey4 extraction per packet; the lane index is
	// the canonical host-pair hash masked to the lane count, the same
	// function the sharded conntrack uses, so a lane's packets hit only that
	// lane's shard.
	for i := range items {
		it := &items[i]
		it.key = packet.FlowKey4Of(it.Pkt)
		l := it.key.PairHash() & e.mask
		e.lanes[l] = append(e.lanes[l], int32(i))
	}
	// Run lanes 0..L-1 in order, each lane's packets in arrival order.
	for l, q := range e.lanes {
		for _, idx := range q {
			it := &items[idx]
			start := 0
			if it.Dir == netem.BtoA {
				start = len(e.devices) - 1
			}
			it.Verdict = e.runChain(it.Pkt, it.Dir, it.key, l, start)
			if it.Verdict == netem.Drop {
				e.drops++
			}
		}
		e.lanes[l] = q[:0]
	}
	e.packets += uint64(e.n)
	e.batches++
	e.n = 0
	return items
}

// runChain runs pkt through the device chain from index idx (inclusive) in
// dir, mirroring netem.Link.process.
//
//tspuvet:hotpath
func (e *Engine) runChain(pkt *packet.Packet, dir netem.Direction, key packet.FlowKey4, lane, idx int) netem.Action {
	step := 1
	if dir == netem.BtoA {
		step = -1
	}
	for ; idx >= 0 && idx < len(e.devices); idx += step {
		if e.devices[idx].HandleSharded(&e.pipes[idx], pkt, dir, key, lane) == netem.Drop { //tspuvet:allow hotpath: interface wraps a prebuilt per-device pipe pointer, no allocation
			return netem.Drop
		}
	}
	return netem.Pass
}

// pipe implements netem.Pipe for one device position in the chain.
type pipe struct {
	e   *Engine
	idx int
}

// Inject mirrors netem.linkPipe.Inject: the packet enters the chain one
// position past this device in its direction of travel, synchronously, on
// the lane its own key hashes to (HandleSharded requires lane == LaneOf(key)).
func (p *pipe) Inject(pkt *packet.Packet, dir netem.Direction) {
	next := p.idx + 1
	if dir == netem.BtoA {
		next = p.idx - 1
	}
	key := packet.FlowKey4Of(pkt)
	p.e.runChain(pkt, dir, key, int(key.PairHash()&p.e.mask), next)
}

func (p *pipe) Now() time.Duration { return p.e.sim.Now() }

// After schedules fn on the simulator. The clock does not advance during
// Process and lanes run in order, so the simulator sees one deterministic
// schedule per trace.
func (p *pipe) After(d time.Duration, fn func()) { p.e.sim.After(d, fn) }
