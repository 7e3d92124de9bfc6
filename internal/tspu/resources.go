package tspu

import (
	"time"

	"tspusim/internal/packet"
)

// Resource management. §8 closes on the observation that the TSPU trades
// resistance to evasion for cheap, commodity hardware near users: it does
// not reassemble TCP, and its ability to "patch" evasions depends on
// whether it is "provisioned with enough computation and memory resources".
// This file makes that trade-off concrete: a bounded flow table with FIFO
// pressure eviction, and a sweeper that reclaims expired state. With a bound
// configured, a state-exhaustion flood can evict an active blocking entry —
// turning the provisioning question into a measurable evasion.

// capacity bookkeeping lives on each conntrack shard.
type capacityState struct {
	maxFlows int
	// fifo holds insertion order for pressure eviction; stale keys are
	// skipped at pop time.
	fifo []packet.FlowKey4
	// pressureEvictions counts entries evicted to make room.
	pressureEvictions int
}

// SetMaxFlows bounds the device's flow table. Zero means unlimited (the
// default, i.e. a well-provisioned device). With a sharded table the bound is
// divided evenly across shards (rounded up), so the aggregate bound is at
// least n and memory pressure is felt locally — a hot host pair exhausts its
// shard the way a hot TSPU exhausts one box, not the whole deployment.
func (d *Device) SetMaxFlows(n int) {
	shards := len(d.ct.shards)
	per := n
	if n > 0 && shards > 1 {
		per = (n + shards - 1) / shards
	}
	for i := range d.ct.shards {
		d.ct.shards[i].cap.maxFlows = per
	}
}

// PressureEvictions reports how many entries were evicted to make room.
func (d *Device) PressureEvictions() int {
	n := 0
	for i := range d.ct.shards {
		n += d.ct.shards[i].cap.pressureEvictions
	}
	return n
}

// noteInsert records a new entry and, if over capacity, evicts the oldest
// live entry that is not the one just inserted. Insertion order is tracked
// even while unbounded, so enabling a bound later still has candidates; the
// loop always consumes one queued key per iteration (the just-inserted key
// terminates it), so it cannot spin even when the table holds entries the
// queue no longer covers.
func (sh *ctShard) noteInsert(key packet.FlowKey4) {
	c := &sh.cap
	c.fifo = append(c.fifo, key)
	if c.maxFlows <= 0 {
		return
	}
	for len(sh.table) > c.maxFlows && len(c.fifo) > 0 {
		victim := c.fifo[0]
		c.fifo = c.fifo[1:]
		if victim == key {
			// Never evict the entry being inserted; put it back and stop —
			// everything older in the queue is already gone.
			c.fifo = append(c.fifo, victim)
			return
		}
		if ve, live := sh.table[victim]; live {
			delete(sh.table, victim)
			sh.release(ve)
			c.pressureEvictions++
		}
	}
}

// compactFIFO drops queued keys whose entries are gone so the insertion
// queue does not grow with total churn.
func (sh *ctShard) compactFIFO() {
	live := sh.cap.fifo[:0]
	for _, k := range sh.cap.fifo {
		if _, ok := sh.table[k]; ok {
			live = append(live, k)
		}
	}
	sh.cap.fifo = live
}

// Sweep removes expired entries immediately instead of waiting for lazy
// eviction on next access; it returns the number reclaimed. Each shard
// advances its timeout wheel, visiting only the buckets that elapsed —
// reclaim cost scales with expired flows, not table size.
//
//tspuvet:coldpath periodic housekeeping, rate-limited to once per sweep interval
func (ct *conntrack) Sweep(now time.Duration) int {
	n := 0
	for i := range ct.shards {
		sh := &ct.shards[i]
		n += sh.advanceWheel(now)
		sh.compactFIFO()
	}
	return n
}

// Sweep reclaims expired conntrack entries and fragment queues.
func (d *Device) Sweep() int {
	return d.ct.Sweep(d.now())
}

// ConntrackEvictions reports how many entries have been reclaimed by timeout
// (sweeps and lazy expiry on access), as opposed to capacity pressure.
func (d *Device) ConntrackEvictions() int { return d.ct.evictionCount() }

// ConntrackPoolStats exposes the per-shard entry-pool counters, aggregated:
// fresh allocations, freelist reuses, and entries currently parked. At scale
// the invariant of interest is allocs ≈ peak concurrency even when total
// churned flows are far larger — steady-state churn must be served by reuse.
func (d *Device) ConntrackPoolStats() (allocs, reuses uint64, pooled int) {
	return d.ct.poolStats()
}

// EnableAutoSweep makes each lane sweep its own conntrack shard at most once
// per interval, piggybacked on packet handling — housekeeping rides the
// datapath rather than pinning the event loop with a self-rescheduling timer
// (which would keep the simulation alive forever), and stays lane-local so
// a lane never sweeps another lane's shard.
func (d *Device) EnableAutoSweep(interval time.Duration) {
	if interval <= 0 {
		interval = 30 * time.Second
	}
	d.sweepEvery = interval
	now := d.now()
	for i := range d.lanes {
		d.lanes[i].lastSweep = now
	}
}
