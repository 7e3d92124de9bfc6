package tspu

import (
	"time"

	"tspusim/internal/censor"
	"tspusim/internal/netem"
	"tspusim/internal/packet"
	"tspusim/internal/quicx"
	"tspusim/internal/sim"
	"tspusim/internal/tlsx"
)

// Config configures one TSPU device instance.
type Config struct {
	// Name identifies the device in stats and traces.
	Name string
	// Sim supplies virtual time.
	Sim *sim.Sim
	// Rand drives failure injection and the SNI-II allowance pick. Nil gets
	// a fixed-seed stream.
	Rand *sim.Rand
	// LocalDir is the link direction corresponding to local→remote
	// (RU→outside) travel. The device's asymmetric behavior — blocking only
	// locally-originated connections — is expressed relative to this.
	LocalDir netem.Direction
	// InspectDepth bounds how many payload bytes the SNI parser examines
	// (default 512). The paper's padding/prepending evasions work because
	// the real device's inspection is similarly bounded.
	InspectDepth int
	// FragLimit is the fragment-queue cap (default 45, the TSPU
	// fingerprint).
	FragLimit int
	// Timeouts default to the paper's measured values.
	Timeouts StateTimeouts
	// FailureRates gives the per-connection probability that a trigger of
	// each type is missed (Table 1). Devices without an entry never fail.
	FailureRates map[BlockType]float64
	// SNI2AllowanceMin/Max bound the "additional five to eight packets"
	// SNI-II delivers after its trigger (§5.2).
	SNI2AllowanceMin, SNI2AllowanceMax int

	// Shards splits the conntrack — and every other piece of mutable device
	// state — into that many independent lanes selected by the packet's
	// canonical host pair, rounded up to a power of two. Lanes share nothing,
	// so the batch engine can run a batch lane by lane with each lane's
	// packets inside one conntrack shard. Zero or one gives the classic
	// single-lane device.
	Shards int
	// PerFlowRand derives failure rolls and the SNI-II allowance from a pure
	// function of (FlowSeed, flow hash, per-flow roll index) instead of
	// consuming the shared Rand stream. The batch engine runs flows lane by
	// lane, an order that differs from sequential delivery; per-flow derivation
	// makes every random outcome independent of that order, which is what
	// lets the batched path stay byte-equivalent to the sequential one.
	// Within a flow the order is fixed (a flow never leaves its lane), so
	// the roll index is deterministic.
	PerFlowRand bool
	// FlowSeed seeds the per-flow derivation (PerFlowRand only), so
	// different devices and different experiment seeds roll differently.
	FlowSeed uint64

	// ReassembleTCP is an ablation switch: reassemble upstream TCP payload
	// per flow before SNI inspection, like the GFW has done since 2013 (§8).
	// The real TSPU does not, which is why TCP segmentation evades it.
	ReassembleTCP bool
	// StrictRoles is an ablation switch: apply SNI triggers regardless of
	// inferred roles, patching the split-handshake/simultaneous-open
	// evasions at the cost of blocking remote-originated flows.
	StrictRoles bool
}

// Stats counts device activity.
type Stats struct {
	Handled     int
	Triggers    map[BlockType]int
	Misses      map[BlockType]int // failure-injected trigger misses
	Dropped     int
	Rewritten   int
	Throttled   int
	FragBuffers int
}

// numBlockTypes sizes the flat per-lane counter arrays (IPBlock is the last
// enumerator).
const numBlockTypes = int(IPBlock) + 1

// laneStats holds one lane's counters as flat words — no maps — so the
// concurrent batch path increments them without synchronization or
// allocation. Stats() folds all lanes into the public map form.
//
//tspuvet:laneowned
type laneStats struct {
	handled     int
	dropped     int
	rewritten   int
	throttled   int
	fragBuffers int
	triggers    [numBlockTypes]int
	misses      [numBlockTypes]int
}

// devLane is the mutable per-shard half of a Device: counters, fragment
// queues, reassembly buffers, and scratch space. Lane i owns exactly the
// packets whose canonical host pair hashes to conntrack shard i, so code
// driving different lanes of one device never touches the same memory.
//
//tspuvet:laneowned
type devLane struct {
	stats laneStats
	frags *fragEngine
	// reasm holds per-flow upstream byte buffers for the ReassembleTCP
	// ablation; flows never change lanes, so per-lane maps stay disjoint.
	reasm map[packet.FlowKey4][]byte
	// fold is the case-normalization scratch threaded into DomainSet
	// matching, replacing the set's shared internal buffer on this lane.
	fold []byte
	// lastSweep drives this lane's datapath-piggybacked housekeeping.
	lastSweep time.Duration
}

// Device is one TSPU middlebox. Attach it to a netem link; it inspects every
// packet crossing in both directions. A device built with Config.Shards > 1
// may be driven concurrently through HandleSharded as long as each goroutine
// sticks to its own lanes; the plain Handle path (and the simulator it runs
// in) remains single-threaded.
type Device struct {
	cfg    Config
	policy *Policy
	rng    *sim.Rand
	ct     *conntrack
	lanes  []devLane
	// slowPath routes SNI classification through the retained reference
	// implementation (string-building parser + Contains) instead of the
	// allocation-free fast path; the equivalence property tests flip it to
	// pin that both paths produce byte-identical device behavior.
	slowPath bool
	// sweepEvery drives datapath-piggybacked housekeeping (per-lane).
	sweepEvery time.Duration
}

// NewDevice creates a device. If no controller registers it, it enforces an
// empty policy.
func NewDevice(cfg Config) *Device {
	if cfg.InspectDepth == 0 {
		cfg.InspectDepth = 512
	}
	if cfg.SNI2AllowanceMin == 0 {
		cfg.SNI2AllowanceMin = 5
	}
	if cfg.SNI2AllowanceMax < cfg.SNI2AllowanceMin {
		cfg.SNI2AllowanceMax = cfg.SNI2AllowanceMin + 3
	}
	if (cfg.Timeouts == StateTimeouts{}) {
		cfg.Timeouts = DefaultTimeouts()
	}
	rng := cfg.Rand
	if rng == nil {
		rng = sim.NewRand(0x75b7)
	}
	d := &Device{
		cfg:    cfg,
		policy: NewPolicy(),
		rng:    rng,
		ct:     newShardedConntrack(cfg.Timeouts, cfg.Shards),
	}
	d.lanes = make([]devLane, d.ct.numShards())
	for i := range d.lanes {
		ln := &d.lanes[i]
		ln.frags = newFragEngine(cfg.FragLimit, cfg.Timeouts.Frag)
		ln.reasm = make(map[packet.FlowKey4][]byte)
	}
	return d
}

// Name implements netem.Middlebox.
func (d *Device) Name() string {
	if d.cfg.Name != "" {
		return d.cfg.Name
	}
	return "tspu"
}

// Policy returns the device's current policy.
func (d *Device) Policy() *Policy { return d.policy }

// SetPolicy installs a policy directly (tests; production path is the
// Controller).
func (d *Device) SetPolicy(p *Policy) { d.policy = p }

// Stats folds all lane counters into the public map form. Only nonzero
// trigger/miss types appear, matching the increment-on-demand maps the
// single-lane device kept.
func (d *Device) Stats() Stats {
	st := Stats{
		Triggers: make(map[BlockType]int),
		Misses:   make(map[BlockType]int),
	}
	for i := range d.lanes {
		ls := &d.lanes[i].stats
		st.Handled += ls.handled
		st.Dropped += ls.dropped
		st.Rewritten += ls.rewritten
		st.Throttled += ls.throttled
		st.FragBuffers += ls.fragBuffers
		for t := 0; t < numBlockTypes; t++ {
			if n := ls.triggers[t]; n > 0 {
				st.Triggers[BlockType(t)] += n
			}
			if n := ls.misses[t]; n > 0 {
				st.Misses[BlockType(t)] += n
			}
		}
	}
	return st
}

// Counters implements censor.Censor: the generic action-counter view of
// Stats, so the cross-censor probe battery can read trigger/drop/rewrite/
// throttle state without knowing TSPU block types.
func (d *Device) Counters() censor.Counters {
	st := d.Stats()
	c := censor.Counters{
		Dropped:   st.Dropped,
		Rewritten: st.Rewritten,
		Throttled: st.Throttled,
	}
	for _, n := range st.Triggers {
		c.ContentTriggers += n
	}
	return c
}

// The TSPU device is one censor model among N (ROADMAP item 4); the probe
// battery in internal/measure drives it through this interface.
var _ censor.Censor = (*Device)(nil)

// ConntrackSize exposes the flow-table size for resource experiments.
func (d *Device) ConntrackSize() int { return d.ct.size() }

// PendingFragQueues exposes the fragment-engine queue count across lanes.
func (d *Device) PendingFragQueues() int {
	n := 0
	for i := range d.lanes {
		n += d.lanes[i].frags.pending()
	}
	return n
}

// fragDiscards / fragForwarded sum fragment-engine outcomes across lanes.
func (d *Device) fragDiscards() int {
	n := 0
	for i := range d.lanes {
		n += d.lanes[i].frags.discards
	}
	return n
}

func (d *Device) fragForwarded() int {
	n := 0
	for i := range d.lanes {
		n += d.lanes[i].frags.forwarded
	}
	return n
}

// NumLanes reports the device's lane (= conntrack shard) count.
func (d *Device) NumLanes() int { return len(d.lanes) }

// LaneOf returns the index of the lane owning key's canonical host pair.
// Fragments carry no ports, but PairHash ignores them, so every fragment and
// every direction of a flow maps to one lane.
//
//tspuvet:hotpath
func (d *Device) LaneOf(key packet.FlowKey4) int {
	return int(key.PairHash() & d.ct.mask)
}

func (d *Device) now() time.Duration { return d.cfg.Sim.Now() }

// isLocalDir reports whether dir is the local→remote direction.
func (d *Device) isLocalDir(dir netem.Direction) bool { return dir == d.cfg.LocalDir }

// Handle implements netem.Middlebox: the full TSPU datapath for one packet.
//
//tspuvet:hotpath
func (d *Device) Handle(pipe netem.Pipe, pkt *packet.Packet, dir netem.Direction) netem.Action {
	key := packet.FlowKey4Of(pkt)
	return d.handleLane(pipe, pkt, dir, key, d.LaneOf(key))
}

// HandleSharded is the batch engine's entry point: identical to Handle, with
// the flow key and lane precomputed by the caller (which already hashed the
// key to route the packet to this lane). lane MUST equal LaneOf(key); the
// caller owns that lane for the duration of the call.
//
//tspuvet:hotpath
//tspuvet:lane
func (d *Device) HandleSharded(pipe netem.Pipe, pkt *packet.Packet, dir netem.Direction, key packet.FlowKey4, lane int) netem.Action {
	return d.handleLane(pipe, pkt, dir, key, lane)
}

//tspuvet:hotpath
func (d *Device) handleLane(pipe netem.Pipe, pkt *packet.Packet, dir netem.Direction, key packet.FlowKey4, lane int) netem.Action {
	ln := &d.lanes[lane]
	sh := &d.ct.shards[lane]
	ln.stats.handled++
	now := d.now()
	d.maybeSweepLane(now, sh, ln)

	// 1. IP-based blocking applies to everything, fragments and ICMP
	// included, "regardless of packet payload or TCP ports" (§5.2).
	if act, decided := d.handleIPBlock(pkt, dir, key, sh, ln, now); decided {
		return act
	}

	// 2. Fragments go to the fragment engine; content inspection never sees
	// them, which is why IP fragmentation evades SNI blocking (§8).
	if pkt.IsFragment() {
		ln.stats.fragBuffers++
		return ln.frags.handle(pipe, pkt, dir)
	}

	switch {
	case pkt.TCP != nil:
		return d.handleTCP(pkt, dir, key, sh, ln, now)
	case pkt.UDP != nil:
		return d.handleUDP(pkt, dir, key, sh, ln, now)
	default:
		return netem.Pass
	}
}

// maybeSweepLane runs this lane's housekeeping from the datapath: the lane's
// own conntrack shard advances its timeout wheel, touching no shared state.
func (d *Device) maybeSweepLane(now time.Duration, sh *ctShard, ln *devLane) {
	if d.sweepEvery <= 0 || now-ln.lastSweep < d.sweepEvery {
		return
	}
	ln.lastSweep = now
	sh.advanceWheel(now)
	sh.compactFIFO()
}

// handleIPBlock implements IP-based blocking (§5.2): a Russian client's
// outgoing packets to a blocked IP are dropped, while responses to a
// connection the blocked IP initiated are rewritten to payload-stripped
// RST/ACKs — the signal the Tor-node correlation experiments look for. The
// device discriminates initiation from response by the ACK flag rather than
// by conntrack origin: an upstream-only installation never sees the inbound
// SYN, yet the paper observes it still rewrites the outbound SYN/ACK, so the
// decision cannot depend on having tracked the flow from its start.
func (d *Device) handleIPBlock(pkt *packet.Packet, dir netem.Direction, key packet.FlowKey4, sh *ctShard, ln *devLane, now time.Duration) (netem.Action, bool) {
	// Fast path: with no IP blocks in the policy (the overwhelmingly common
	// case) there is nothing to decide, and in particular no reason to pay
	// two address-map probes per packet.
	if len(d.policy.BlockedIPs) == 0 {
		return netem.Pass, false
	}
	dstBlocked := d.policy.IPBlocked(pkt.IP.Dst)
	srcBlocked := d.policy.IPBlocked(pkt.IP.Src)
	if !dstBlocked && !srcBlocked {
		return netem.Pass, false
	}

	// ICMP involving blocked IPs is dropped in both directions.
	if pkt.IP.Protocol == packet.ProtoICMP {
		ln.stats.dropped++
		return netem.Drop, true
	}

	if pkt.TCP != nil || pkt.UDP != nil {
		// The per-connection failure roll is cached on the flow entry.
		e := sh.observe(key, pkt, d.isLocalDir(dir), now)
		if !e.ipVerdictKnown {
			e.ipVerdictKnown = true
			e.ipBlocked = !d.failRoll(e, IPBlock, ln)
			if e.ipBlocked {
				ln.stats.triggers[IPBlock]++
			}
		}
		if !e.ipBlocked {
			return netem.Pass, true
		}
	}

	if d.isLocalDir(dir) && dstBlocked {
		if pkt.TCP != nil && pkt.TCP.Flags.Has(packet.FlagACK) {
			// Response-shaped packet: strip the payload and flip to RST/ACK.
			pkt.TCP.Payload = nil
			pkt.TCP.Flags = packet.FlagsRSTACK
			ln.stats.rewritten++
			return netem.Pass, true
		}
		// Initiation-shaped (SYN, or non-TCP): dropped at the TSPU.
		ln.stats.dropped++
		return netem.Drop, true
	}
	// Inbound from a blocked IP: the request is allowed through.
	return netem.Pass, true
}

// flowRand draws the next value of e's private random stream: one splitmix64
// finalization over (FlowSeed, flow hash, roll index). A pure function of
// flow identity and roll count — nothing shared is consumed, so the result
// is the same whichever lane order, batch, or packet ordering gets here.
//
//tspuvet:hotpath
func (d *Device) flowRand(e *flowEntry) uint64 {
	seq := uint64(e.rollSeq)
	e.rollSeq++
	z := (d.cfg.FlowSeed ^ e.key.Hash()) + seq*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// failRoll returns true when the device misses this trigger (per-connection
// failure injection, Table 1). In PerFlowRand mode the roll comes from the
// flow's private stream; otherwise from the device's shared stream.
func (d *Device) failRoll(e *flowEntry, t BlockType, ln *devLane) bool {
	rate, ok := d.cfg.FailureRates[t]
	if !ok || rate <= 0 {
		return false
	}
	var miss bool
	if d.cfg.PerFlowRand {
		miss = float64(d.flowRand(e)>>11)/(1<<53) < rate
	} else {
		//tspuvet:allow lanecheck: the shared-stream branch runs only with PerFlowRand off, and the batch engine requires PerFlowRand devices (engine doc); single-threaded Handle is the only caller here
		miss = d.rng.Bool(rate)
	}
	if miss {
		ln.stats.misses[t]++
	}
	return miss
}

// sni2Allowance picks the "additional five to eight packets" SNI-II budget.
func (d *Device) sni2Allowance(e *flowEntry) int {
	if d.cfg.PerFlowRand {
		span := uint64(d.cfg.SNI2AllowanceMax - d.cfg.SNI2AllowanceMin + 1)
		return d.cfg.SNI2AllowanceMin + int(d.flowRand(e)%span)
	}
	//tspuvet:allow lanecheck: the shared-stream branch runs only with PerFlowRand off, and the batch engine requires PerFlowRand devices (engine doc); single-threaded Handle is the only caller here
	return d.rng.IntRange(d.cfg.SNI2AllowanceMin, d.cfg.SNI2AllowanceMax)
}

func (d *Device) handleTCP(pkt *packet.Packet, dir netem.Direction, key packet.FlowKey4, sh *ctShard, ln *devLane, now time.Duration) netem.Action {
	e := sh.observe(key, pkt, d.isLocalDir(dir), now)

	// Active blocking state takes precedence over new trigger detection.
	if b := e.activeBlock(now); b != nil {
		return d.applyBlock(e, b, pkt, dir, ln, now)
	}

	// Trigger detection happens only on local→remote packets: "any sequence
	// starting with a packet sent by the remote peer is NOT a valid prefix"
	// (§5.3.2).
	if d.isLocalDir(dir) && len(pkt.TCP.Payload) > 0 && pkt.TCP.DstPort == 443 {
		if act := d.detectSNITrigger(e, pkt, ln, now); act != netem.Pass {
			return act
		}
	}
	return netem.Pass
}

// detectSNITrigger inspects one upstream payload for a triggering
// ClientHello and installs the matching blocking state.
func (d *Device) detectSNITrigger(e *flowEntry, pkt *packet.Packet, ln *devLane, now time.Duration) netem.Action {
	if e.origin == OriginRemote && !d.cfg.StrictRoles {
		return netem.Pass // remotely-originated connections are exempt
	}
	cls, ok := d.classifySNI(e, pkt, ln)
	if !ok || !cls.Any() {
		return netem.Pass
	}

	confused := e.roleConfused() && !d.cfg.StrictRoles

	// SNI-III throttling takes precedence while its policy window is
	// active: the same domains moved to SNI-I only after throttling was
	// switched off on March 4 (§5.2).
	if cls.Throttle && !e.isImmune(SNI3) {
		if d.failRoll(e, SNI3, ln) {
			e.setImmune(SNI3)
		} else {
			ln.stats.triggers[SNI3]++
			bucket := newTokenBucket(d.policy.ThrottleRate, 0, now)
			d.ct.setBlock(e, SNI3, now, 0, bucket)
			return netem.Pass
		}
	}

	// SNI-I: primary mechanism, skipped when the role heuristic was
	// confused by a remote SYN (Fig. 4 green paths).
	if cls.SNI1 && !confused && !e.isImmune(SNI1) {
		if d.failRoll(e, SNI1, ln) {
			e.setImmune(SNI1)
		} else {
			ln.stats.triggers[SNI1]++
			d.ct.setBlock(e, SNI1, now, 0, nil)
			return netem.Pass // the trigger itself is delivered
		}
	}
	// SNI-IV: backup for its select domain list; fires when SNI-I did not
	// take action. Drops everything including the trigger.
	if cls.SNI4 && !e.isImmune(SNI4) {
		if d.failRoll(e, SNI4, ln) {
			e.setImmune(SNI4)
		} else {
			ln.stats.triggers[SNI4]++
			d.ct.setBlock(e, SNI4, now, 0, nil)
			ln.stats.dropped++
			return netem.Drop
		}
	}
	// Role confusion exempts only SNI-I (Fig. 4); SNI-II still fires —
	// Table 8 measures "Ls;Rs;Lt" as DROP with an SNI-II trigger.
	// SNI-II: allowance then symmetric drop.
	if cls.SNI2 && !e.isImmune(SNI2) {
		if d.failRoll(e, SNI2, ln) {
			e.setImmune(SNI2)
		} else {
			ln.stats.triggers[SNI2]++
			d.ct.setBlock(e, SNI2, now, d.sni2Allowance(e), nil)
			return netem.Pass
		}
	}
	return netem.Pass
}

// classifySNI parses the packet payload (depth-limited, single record) for a
// ClientHello SNI and classifies it under the current policy. The fast path
// pairs tlsx.ExtractSNI with Policy case-folding into the lane's scratch so
// a pass-through packet — TLS or not — is inspected without a single
// allocation and without touching shared policy buffers; slowClassifySNI is
// the retained reference implementation. With the ReassembleTCP ablation the
// device instead accumulates upstream bytes per flow and parses the stream
// prefix, which defeats TCP segmentation evasion.
func (d *Device) classifySNI(e *flowEntry, pkt *packet.Packet, ln *devLane) (Classification, bool) {
	if d.cfg.ReassembleTCP {
		acc := append(ln.reasm[e.key], pkt.TCP.Payload...)
		if len(acc) > 4096 {
			acc = acc[:4096]
		}
		ln.reasm[e.key] = acc
		//tspuvet:allow hotpath: the ReassembleTCP ablation deep-parses the stream prefix every packet; its malformed-input error path allocates by design and the ablation is measured separately from the production fast path
		if info, err := tlsx.ParseClientHelloDeep(acc); err == nil && info.ServerName != "" {
			return d.policy.Classify(info.ServerName), true
		}
		return Classification{}, false
	}
	if d.slowPath {
		sni, ok := d.slowExtractSNI(pkt)
		if !ok {
			return Classification{}, false
		}
		return d.policy.Classify(sni), true
	}
	buf := pkt.TCP.Payload
	if len(buf) > d.cfg.InspectDepth {
		buf = buf[:d.cfg.InspectDepth]
	}
	sni, ok := tlsx.ExtractSNI(buf)
	if !ok {
		return Classification{}, false
	}
	return d.policy.classifyBytesWith(sni, &ln.fold), true
}

// slowExtractSNI is the pre-optimization reference: a full structural parse
// that materializes the Info struct and its strings. It is kept (unexported,
// exercised via the slowPath flag) as the oracle the equivalence property
// tests compare the zero-allocation path against.
//
//tspuvet:coldpath retained pre-optimization oracle, reached only with the slowPath flag
func (d *Device) slowExtractSNI(pkt *packet.Packet) (string, bool) {
	buf := pkt.TCP.Payload
	if len(buf) > d.cfg.InspectDepth {
		buf = buf[:d.cfg.InspectDepth]
	}
	info, err := tlsx.ParseClientHello(buf)
	if err != nil || info.ServerName == "" {
		return "", false
	}
	return info.ServerName, true
}

// applyBlock enforces an installed blocking state on one packet.
func (d *Device) applyBlock(e *flowEntry, b *blockState, pkt *packet.Packet, dir netem.Direction, ln *devLane, now time.Duration) netem.Action {
	//tspuvet:allow statecheck: IPBlock never installs a flow blockState; prefix enforcement happens in handleIPBlock before conntrack blocks
	switch b.typ {
	case SNI1:
		// Acts only on downstream (remote→local) packets: truncate payload,
		// set RST/ACK; TTL, seq, and ack are left untouched (§5.2).
		if !d.isLocalDir(dir) {
			pkt.TCP.Payload = nil
			pkt.TCP.Flags = packet.FlagsRSTACK
			ln.stats.rewritten++
		}
		return netem.Pass
	case SNI2:
		if b.allowance > 0 {
			b.allowance--
			return netem.Pass
		}
		ln.stats.dropped++
		return netem.Drop
	case SNI3:
		if b.bucket.admit(len(pkt.AppPayload()), now) {
			return netem.Pass
		}
		ln.stats.throttled++
		return netem.Drop
	case SNI4, QUICBlock:
		ln.stats.dropped++
		return netem.Drop
	}
	return netem.Pass
}

func (d *Device) handleUDP(pkt *packet.Packet, dir netem.Direction, key packet.FlowKey4, sh *ctShard, ln *devLane, now time.Duration) netem.Action {
	e := sh.observe(key, pkt, d.isLocalDir(dir), now)

	if b := e.activeBlock(now); b != nil {
		return d.applyBlock(e, b, pkt, dir, ln, now)
	}
	if !d.policy.QUICFilter || !d.isLocalDir(dir) {
		return netem.Pass
	}
	if quicx.MatchesTSPUFingerprint(pkt.UDP.DstPort, pkt.UDP.Payload) && !e.isImmune(QUICBlock) {
		if d.failRoll(e, QUICBlock, ln) {
			e.setImmune(QUICBlock)
		} else {
			ln.stats.triggers[QUICBlock]++
			d.ct.setBlock(e, QUICBlock, now, 0, nil)
			// The fingerprinted packet itself is delivered; everything after
			// is dropped "regardless of their length or the presence of the
			// QUIC fingerprint" (§5.2).
		}
	}
	return netem.Pass
}
