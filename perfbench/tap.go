package main

import (
	"net/netip"

	"tspusim/internal/netem"
	"tspusim/internal/packet"
	"tspusim/internal/sim"
	"tspusim/internal/tspu"
)

// Caps on the samples the traced run keeps for per-layer replays. The
// counts (hops, queue depths, table sizes) cover every packet; only the
// retained packet clones are capped.
const (
	maxDevicePackets = 20000
	maxLookups       = 50000
	maxHellos        = 2000
)

// lookupSample is one forwarding decision seen in the workload: the router
// a packet was delivered to and the destination it looked up.
type lookupSample struct {
	node *netem.Node
	dst  netip.Addr
}

// tapper observes a lab through netem.Link.Tap captures on every link. A
// capture clones each packet it records, so the lab's own packets are never
// touched; each capture's filter hands its records to the tapper whenever
// they pile up, which keeps memory bounded however long the workload runs.
type tapper struct {
	sim   *sim.Sim
	links []*netem.Link
	caps  []*netem.Capture
	devs  [][]*tspu.Device // per link, the TSPU devices attached to it

	entries    int // link traversals: packets entering a link
	devPkts    []devicePacket
	lookups    []lookupSample
	hellos     [][]byte
	depths     []float64 // sampled simulator queue depths
	fragPeak   int
	tablePeak  int
	depthEvery int
}

const tapFlushAt = 1024

func newTapper(s *sim.Sim, n *netem.Network) *tapper {
	t := &tapper{sim: s, depthEvery: 64}
	for _, l := range n.Links() {
		var devs []*tspu.Device
		for _, mb := range l.Middleboxes() {
			if d, ok := mb.(*tspu.Device); ok {
				devs = append(devs, d)
			}
		}
		c := netem.NewCapture("perfbench")
		i := len(t.links)
		t.links = append(t.links, l)
		t.caps = append(t.caps, c)
		t.devs = append(t.devs, devs)
		c.Filter = func(*packet.Packet) bool {
			if len(c.Records) >= tapFlushAt {
				t.drain(i)
			}
			t.observe(i)
			return true
		}
		l.Tap(c)
	}
	return t
}

// observe samples device and simulator state as a packet crosses link i.
func (t *tapper) observe(i int) {
	for _, d := range t.devs[i] {
		if q := d.PendingFragQueues(); q > t.fragPeak {
			t.fragPeak = q
		}
		if n := d.ConntrackSize(); n > t.tablePeak {
			t.tablePeak = n
		}
	}
	t.depthEvery--
	if t.depthEvery == 0 {
		t.depthEvery = 64
		t.depths = append(t.depths, float64(t.sim.Pending()))
	}
}

// drain folds capture i's records into the tapper's counts and samples.
func (t *tapper) drain(i int) {
	c := t.caps[i]
	l := t.links[i]
	for _, r := range c.Records {
		if r.Entry {
			t.entries++
			if len(t.devs[i]) > 0 && len(t.devPkts) < maxDevicePackets {
				t.devPkts = append(t.devPkts, devicePacket{devs: t.devs[i], dir: r.Dir, at: r.Time, pkt: r.Pkt})
			}
			if r.Pkt.TCP != nil && isClientHello(r.Pkt.TCP.Payload) && len(t.hellos) < maxHellos && len(t.devs[i]) > 0 {
				t.hellos = append(t.hellos, r.Pkt.TCP.Payload)
			}
			continue
		}
		dst := l.B()
		if r.Dir == netem.BtoA {
			dst = l.A()
		}
		// Routers run Node.Lookup on every packet they forward.
		if nd := dst.Node(); nd.IsRouter() && !nd.HasAddr(r.Pkt.IP.Dst) && len(t.lookups) < maxLookups {
			t.lookups = append(t.lookups, lookupSample{node: nd, dst: r.Pkt.IP.Dst})
		}
	}
	c.Clear()
}

// flush drains every capture.
func (t *tapper) flush() {
	for i := range t.caps {
		if len(t.caps[i].Records) > 0 {
			t.drain(i)
		}
	}
}

// netemLayer reports hops per op and replays the sampled lookups.
func (t *tapper) netemLayer(tr *tracer, op int64, ops int, into map[string]float64) {
	into["netem.hops_per_op"] = ratio(float64(t.entries), float64(ops))
	var sink *netem.Iface
	ns, s, e := timeEach(t.lookups, replayMinNs, func(l lookupSample) { sink = l.node.Lookup(l.dst) })
	if sink != nil {
		sinkInt++
	}
	tr.record(op, -1, "netem.lookup", s, e)
	into["netem.lookup_ns"] = ns
}

// packets returns the retained device-link packets.
func (t *tapper) packets() []*packet.Packet {
	out := make([]*packet.Packet, len(t.devPkts))
	for i, d := range t.devPkts {
		out[i] = d.pkt
	}
	return out
}
