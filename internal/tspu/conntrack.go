package tspu

import (
	"time"

	"tspusim/internal/packet"
)

// Origin records which side the TSPU believes initiated a connection. The
// inference is heuristic — the direction of the first packet seen, refined
// by SYN handling — and tricking it is the root of the split-handshake and
// simultaneous-open evasions (§5.3.2).
type Origin int

// Origins.
const (
	OriginLocal Origin = iota
	OriginRemote
)

func (o Origin) String() string {
	if o == OriginLocal {
		return "local"
	}
	return "remote"
}

// ConnState is the TSPU's connection-tracking state. Timeouts for these
// states were measured in §5.3.3 (Table 2) and do not match any documented
// OS conntrack implementation (Table 7).
//
//tspuvet:closedenum
type ConnState int

// Connection-tracking states.
const (
	CTSynSent ConnState = iota
	CTSynRecv
	CTEstablished
)

func (s ConnState) String() string {
	switch s {
	case CTSynSent:
		return "SYN_SENT"
	case CTSynRecv:
		return "SYN_RCVD"
	case CTEstablished:
		return "ESTABLISHED"
	}
	return "?"
}

// StateTimeouts holds the conntrack and blocking-state lifetimes. Defaults
// are the paper's measured values (Table 2).
type StateTimeouts struct {
	SynSent     time.Duration // 60 s
	SynRecv     time.Duration // 105 s
	Established time.Duration // 480 s
	SNI1        time.Duration // 75 s
	SNI2        time.Duration // 420 s
	SNI4        time.Duration // 40 s
	QUIC        time.Duration // 420 s
	Frag        time.Duration // ~5 s fragment queue timeout (§5.3.1)
}

// DefaultTimeouts returns the values measured in the paper.
func DefaultTimeouts() StateTimeouts {
	return StateTimeouts{
		SynSent:     60 * time.Second,
		SynRecv:     105 * time.Second,
		Established: 480 * time.Second,
		SNI1:        75 * time.Second,
		SNI2:        420 * time.Second,
		SNI4:        40 * time.Second,
		QUIC:        420 * time.Second,
		Frag:        5 * time.Second,
	}
}

func (t StateTimeouts) forState(s ConnState) time.Duration {
	switch s {
	case CTSynSent:
		return t.SynSent
	case CTSynRecv:
		return t.SynRecv
	default: //tspuvet:allow statecheck: CTEstablished and any unmodeled state age out on the established timeout
		return t.Established
	}
}

func (t StateTimeouts) forBlock(b BlockType) time.Duration {
	switch b {
	case SNI1:
		return t.SNI1
	case SNI2:
		return t.SNI2
	case SNI4:
		return t.SNI4
	case QUICBlock:
		return t.QUIC
	default: //tspuvet:allow statecheck: SNI3 and IPBlock holds have no measured timeout in Table 2; they age on the established timeout
		return t.Established
	}
}

// blockState is an active blocking decision on one flow. It is embedded by
// value in the flowEntry so installing a block never allocates.
//
//tspuvet:laneowned
type blockState struct {
	typ   BlockType
	until time.Duration
	// allowance is the number of further packets SNI-II lets through before
	// symmetric drops begin.
	allowance int
	// bucket polices SNI-III throttled flows.
	bucket *tokenBucket
}

// flowEntry is one conntrack record. Entries are pooled per-shard: a deleted
// entry's memory is reused by the next flow instead of going to the garbage
// collector, so flow churn does not allocate in steady state.
//
//tspuvet:laneowned
type flowEntry struct {
	key     packet.FlowKey4 // canonical compact 5-tuple
	origin  Origin
	state   ConnState
	expires time.Duration
	// sawRemoteSYN marks local-origin flows that later carried a SYN from
	// the remote peer (split handshake / simultaneous open). These are the
	// green paths of Fig. 4: the role heuristic is confused, SNI-I no longer
	// acts, and only the SNI-IV backup can fire.
	sawRemoteSYN bool
	// sawSYNACK gates promotion to ESTABLISHED on a real handshake.
	sawSYNACK bool
	hasBlock  bool
	block     blockState
	// immune is a bitmask over BlockType recording trigger types this flow
	// escaped via the device's per-connection failure roll (Table 1):
	// retrying the same trigger on the same connection stays unblocked, a
	// fresh connection re-rolls.
	immune uint8
	// ipVerdictKnown/ipBlocked cache the per-flow IP-block decision.
	ipVerdictKnown bool
	ipBlocked      bool
	// gen invalidates stale timeWheel references: release bumps it, so a
	// wheel bucket holding an old (entry, gen) pair resolves to a no-op —
	// the sim.Timer discipline applied to pooled flow entries.
	gen uint32
	// rollSeq counts per-flow random decisions consumed in PerFlowRand mode,
	// so each roll on a flow draws a distinct, order-independent value.
	rollSeq uint32
}

func (e *flowEntry) roleConfused() bool {
	return e.origin == OriginLocal && e.sawRemoteSYN
}

func (e *flowEntry) isImmune(t BlockType) bool { return e.immune&(1<<uint(t)) != 0 }
func (e *flowEntry) setImmune(t BlockType)     { e.immune |= 1 << uint(t) }

// ctShard is one independent slice of the flow table: its own map, entry
// pool, capacity bound, and timeout wheel. Shards share nothing, so lanes
// driving disjoint shards need no lock — the decentralized-deployment
// analogue of the paper's observation that TSPU state is per-box, not
// network-global.
//
//tspuvet:laneowned
type ctShard struct {
	table    map[packet.FlowKey4]*flowEntry
	timeouts StateTimeouts
	// evictions counts expired entries reclaimed (lazily or by sweep).
	evictions int
	// cap implements the optional flow-table bound (resources.go).
	cap capacityState
	// free is the entry pool, refilled as entries are deleted.
	free []*flowEntry
	// wheel indexes entries by expiry so sweeping visits only elapsed
	// buckets instead of scanning the whole table (wheel.go).
	wheel timeWheel
	// allocs / poolReuses account pool behavior: in steady state reuse grows
	// and allocs stay flat — the leak check invariant.
	allocs     uint64
	poolReuses uint64
}

// conntrack is the device's flow table with lazy expiry against the virtual
// clock, split into 2^k shards selected by FlowKey4.PairHash. With one shard
// (the default) it behaves exactly as the unsharded table did.
type conntrack struct {
	shards   []ctShard
	mask     uint64
	timeouts StateTimeouts
}

func newConntrack(t StateTimeouts) *conntrack {
	return newShardedConntrack(t, 1)
}

// newShardedConntrack builds a table with at least n shards, rounded up to a
// power of two so shard selection is a mask.
func newShardedConntrack(t StateTimeouts, n int) *conntrack {
	size := 1
	for size < n {
		size <<= 1
	}
	ct := &conntrack{shards: make([]ctShard, size), mask: uint64(size - 1), timeouts: t}
	for i := range ct.shards {
		sh := &ct.shards[i]
		sh.table = make(map[packet.FlowKey4]*flowEntry)
		sh.timeouts = t
		sh.wheel.init()
	}
	return ct
}

// shardFor selects the shard owning key. PairHash depends only on the
// canonical (src, dst) address pair, so both directions of a flow — and every
// other piece of middlebox state between the same hosts — land on one shard.
//
//tspuvet:hotpath
func (ct *conntrack) shardFor(key packet.FlowKey4) *ctShard {
	return &ct.shards[key.PairHash()&ct.mask]
}

func (ct *conntrack) numShards() int { return len(ct.shards) }

// release recycles a deleted entry. The caller must have removed it from the
// table; zeroing drops the token-bucket pointer so stopped throttles are
// collectible, and the bumped generation kills any wheel reference still
// pointing here.
func (sh *ctShard) release(e *flowEntry) {
	e.checkLive("released")
	g := e.gen
	*e = flowEntry{}
	e.gen = g + 1
	poisonEntry(e)
	sh.free = append(sh.free, e)
}

func (sh *ctShard) allocEntry() *flowEntry {
	if n := len(sh.free); n > 0 {
		e := sh.free[n-1]
		sh.free[n-1] = nil
		sh.free = sh.free[:n-1]
		unpoisonEntry(e)
		sh.poolReuses++
		return e
	}
	sh.allocs++
	return &flowEntry{} //tspuvet:allow hotpath: pool-miss refill, amortized to zero across a run
}

// lookup returns the live entry for key, expiring stale state.
func (sh *ctShard) lookup(key packet.FlowKey4, now time.Duration) *flowEntry {
	e, ok := sh.table[key]
	if !ok {
		return nil
	}
	e.checkLive("found in table")
	if now >= e.expires {
		delete(sh.table, key)
		sh.evictions++
		sh.release(e)
		return nil
	}
	return e
}

// observe updates (or creates) the entry for one packet and returns it.
// dirLocal reports whether the packet travels local→remote; key must be
// packet.FlowKey4Of(pkt) (precomputed by batch callers that already hashed it
// for shard selection). The transition rules encode the paper's findings:
//
//   - A flow's origin is the direction of the first packet seen; sequences
//     starting with a remote packet are never valid blocking prefixes.
//   - A bare SYN from the remote peer on a local-origin flow marks the role
//     heuristic as confused (Fig. 4's green paths).
//   - A bare ACK arriving in SYN_SENT restarts tracking with the ACK's
//     direction as origin; the observed PASS on the "Local SYN, Remote ACK,
//     trigger" sequence of Table 8 is only explainable if the TSPU replaces
//     rather than updates its entry on unsolicited ACKs.
//   - Promotion to ESTABLISHED requires having seen a SYN/ACK.
func (sh *ctShard) observe(key packet.FlowKey4, pkt *packet.Packet, dirLocal bool, now time.Duration) *flowEntry {
	e := sh.lookup(key, now)
	t := pkt.TCP

	newEntry := func(state ConnState) *flowEntry {
		origin := OriginRemote
		if dirLocal {
			origin = OriginLocal
		}
		ne := sh.allocEntry()
		ne.key = key
		ne.origin = origin
		ne.state = state
		ne.expires = now + sh.timeouts.forState(state)
		sh.table[key] = ne
		sh.noteInsert(key)
		sh.wheel.insert(ne)
		return ne
	}

	if e == nil {
		state := CTEstablished // data/ACK-opened entries age like established
		if t != nil {
			switch {
			case t.Flags.Has(packet.FlagsSYNACK):
				state = CTSynRecv
			case t.Flags.Has(packet.FlagSYN):
				state = CTSynSent
			}
		}
		e = newEntry(state)
		if t != nil && t.Flags.Has(packet.FlagsSYNACK) {
			e.sawSYNACK = true
		}
		return e
	}

	if t != nil {
		flags := t.Flags
		switch {
		case flags.Has(packet.FlagsSYNACK):
			e.sawSYNACK = true
			if e.state == CTSynSent || e.state == CTSynRecv {
				e.state = CTEstablished
			}
		case flags.Has(packet.FlagSYN):
			if !dirLocal && e.origin == OriginLocal {
				e.sawRemoteSYN = true
			}
			if e.state == CTSynSent {
				e.state = CTSynRecv
			}
		case flags.Has(packet.FlagACK):
			bareACK := flags == packet.FlagACK && len(t.Payload) == 0
			ackFromOpposite := (e.origin == OriginLocal) != dirLocal
			if bareACK && e.state == CTSynSent && ackFromOpposite {
				// Unsolicited bare ACK from the peer of the opener: restart
				// tracking as a remote-originated (exempt) connection. This
				// is the only reading consistent with both Table 8's
				// "Ls;Ra;Lt -> PASS" and Fig. 4's finding that remote-first
				// sequences are never valid prefixes. Data-bearing ACKs
				// never restart — otherwise every trigger ClientHello would
				// reset the flow it rides on.
				delete(sh.table, key)
				sh.release(e)
				ne := newEntry(CTEstablished)
				ne.origin = OriginRemote
				return ne
			}
			if e.state == CTSynRecv && e.sawSYNACK {
				e.state = CTEstablished
			}
		}
	}
	// Activity refreshes the state timer, but never shortens an active
	// blocking hold. Expiry only ever moves later, which is what lets the
	// timeout wheel hold a single lazy reference per entry.
	exp := now + sh.timeouts.forState(e.state)
	if e.hasBlock && e.block.until > exp {
		exp = e.block.until
	}
	e.expires = exp
	return e
}

// observe routes one packet to its owning shard.
func (ct *conntrack) observe(pkt *packet.Packet, dirLocal bool, now time.Duration) *flowEntry {
	key := packet.FlowKey4Of(pkt)
	return ct.shardFor(key).observe(key, pkt, dirLocal, now)
}

// observeKey is observe with the flow key already extracted — the batch path
// computes keys once per batch for shard routing and passes them down.
//
//tspuvet:hotpath
func (ct *conntrack) observeKey(key packet.FlowKey4, pkt *packet.Packet, dirLocal bool, now time.Duration) *flowEntry {
	return ct.shardFor(key).observe(key, pkt, dirLocal, now)
}

// lookup returns the live entry for key, expiring stale state.
func (ct *conntrack) lookup(key packet.FlowKey4, now time.Duration) *flowEntry {
	return ct.shardFor(key).lookup(key, now)
}

// setBlock installs a blocking state on the entry and extends its lifetime
// to cover it. Expiry grows monotonically, so the entry's wheel reference
// stays valid and re-buckets when its original slot fires.
func (ct *conntrack) setBlock(e *flowEntry, typ BlockType, now time.Duration, allowance int, bucket *tokenBucket) {
	e.hasBlock = true
	e.block = blockState{
		typ:       typ,
		until:     now + ct.timeouts.forBlock(typ),
		allowance: allowance,
		bucket:    bucket,
	}
	if e.block.until > e.expires {
		e.expires = e.block.until
	}
}

// activeBlock returns the entry's blocking state if it has not expired.
func (e *flowEntry) activeBlock(now time.Duration) *blockState {
	e.checkLive("read")
	if !e.hasBlock || now >= e.block.until {
		return nil
	}
	return &e.block
}

// size reports the number of table entries (including not-yet-swept stale
// ones) across all shards.
func (ct *conntrack) size() int {
	n := 0
	for i := range ct.shards {
		n += len(ct.shards[i].table)
	}
	return n
}

// evictionCount sums expired-entry reclaims across shards.
func (ct *conntrack) evictionCount() int {
	n := 0
	for i := range ct.shards {
		n += ct.shards[i].evictions
	}
	return n
}

// poolStats reports aggregate entry-pool accounting: fresh allocations,
// pooled reuses, and entries currently sitting in freelists. In steady-state
// churn allocs plateaus at the peak concurrent flow count while reuses keep
// climbing — the shard-pool leak check invariant.
func (ct *conntrack) poolStats() (allocs, reuses uint64, pooled int) {
	for i := range ct.shards {
		sh := &ct.shards[i]
		allocs += sh.allocs
		reuses += sh.poolReuses
		pooled += len(sh.free)
	}
	return
}
