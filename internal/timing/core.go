package timing

import (
	"repro/internal/cache"
	"repro/internal/exec"
	"repro/internal/ptx"
)

// schedState is one warp scheduler's persistent state: its candidate list
// and round-robin pointer. The candidate list is maintained incrementally
// as CTAs arrive and retire instead of being re-gathered (and reallocated)
// every cycle.
//
// A scheduler that issued nothing sleeps until wake (see stageIssue). Its
// stall class cannot change before then, so the slots it leaves empty
// form one run of class stall from stallFrom, charged to the stats when
// the run ends, at each sample-bucket boundary, and before a clock jump
// or a shard merge.
type schedState struct {
	cands []*warpCtx
	rr    int

	wake      uint64 // first cycle the scheduler must be scanned again
	stalled   bool   // a stall run is pending
	stall     stallKind
	stallFrom uint64 // first cycle of the pending run not yet charged
}

type ctaSlot struct {
	cta     *exec.CTA
	run     *gridRun // resident grid this CTA belongs to
	warps   []*warpCtx
	done    bool
	stepped bool // a warp stepped, or the CTA arrived, since the last barrier/retire check
}

// smCore is one streaming multiprocessor. All of its fields are owned by
// the core: during the parallel issue stage exactly one worker touches a
// given core, and the coordinator only reads the per-cycle outputs between
// phase barriers. Shared-system traffic (L2/DRAM partitions) is never
// touched here; it is queued in memQ and serviced by the memory stage in a
// canonical order, which is what makes the simulation deterministic for
// any worker count.
type smCore struct {
	id  int
	eng *Engine
	l1  *cache.Cache

	slots  []*ctaSlot
	scheds []schedState

	// occupancy bookkeeping for the multi-grid dispatcher: warp contexts
	// and shared-memory bytes held by resident CTAs of every grid.
	warpsUsed int
	smemUsed  int

	// lastMissDone approximates MSHR-full retry latency.
	lastMissDone uint64

	stats *Stats         // per-core shard, merged at drain boundaries
	cov   *exec.Coverage // per-core functional coverage shard

	// runInstrs shards warp-instruction counts by resident-grid id so
	// per-kernel stats stay attributable while several grids share the
	// core; sized by the engine at the start of every drain.
	runInstrs []uint64

	// Event-driven issue state. wakeAt is the earliest scheduler wake;
	// while the clock is below it the whole core sleeps. tickedTo is one
	// past the last cycle stageIssue ran, the end of every pending stall
	// run; bucketEnd is the first cycle after that cycle's sample bucket.
	// stepped records that some slot has its stepped flag set.
	wakeAt    uint64
	tickedTo  uint64
	bucketEnd uint64
	stepped   bool

	// per-cycle outputs, read by the coordinator between phase barriers
	issuedAny    bool
	nextAt       uint64
	retiredSlots []*ctaSlot
	err          error
	errRunID     int

	memQ  []memRequest // memory-stage requests issued this cycle, in issue order
	atomQ []*warpCtx   // atomics deferred to the coordinator's sequential drain

	segScratch []uint64 // coalescer scratch, reused across instructions

	info exec.StepInfo // the issuing instruction's step outcome, filled in place
}

func newCore(id int, e *Engine, l1 *cache.Cache) *smCore {
	c := &smCore{
		id: id, eng: e, l1: l1,
		scheds: make([]schedState, e.cfg.SchedulersPerSM),
		stats:  newStats(e.cfg),
		cov:    exec.NewCoverage(),
	}
	return c
}

// addCTA installs a dispatched CTA, distributing its warps across the
// schedulers (warp i goes to scheduler i mod S, like GPGPU-Sim's "lrr"
// distribution).
func (c *smCore) addCTA(slot *ctaSlot) {
	c.slots = append(c.slots, slot)
	c.warpsUsed += len(slot.warps)
	if slot.run != nil {
		c.smemUsed += slot.run.smemPerCTA
	}
	for wi, w := range slot.warps {
		sc := &c.scheds[wi%len(c.scheds)]
		sc.cands = append(sc.cands, w)
		sc.wake = 0
	}
	c.wakeAt = 0
	slot.stepped = true
	c.stepped = true
}

// removeCTA compacts the retired CTA's warps out of every scheduler's
// candidate list in place, preserving relative order (no reallocation).
func (c *smCore) removeCTA(slot *ctaSlot) {
	for si := range c.scheds {
		sc := &c.scheds[si]
		keep := sc.cands[:0]
		for _, w := range sc.cands {
			if w.cta != slot.cta {
				keep = append(keep, w)
			}
		}
		// clear the tail so retired warp contexts can be collected
		for i := len(keep); i < len(sc.cands); i++ {
			sc.cands[i] = nil
		}
		sc.cands = keep
		if len(keep) > 0 {
			sc.rr %= len(keep)
		} else {
			sc.rr = 0
		}
	}
}

// releaseBatchRefs drops the batch-lifetime references a core's reusable
// per-cycle buffers keep beyond their logical length: retiredSlots holds
// the last cycle's retired ctaSlots (whose warps pin their CTAs and
// grid), slots' backing array can keep a stale tail after the in-place
// retirement compaction, and memQ/atomQ entries point at warp contexts.
// Without this, a drained batch stays pinned in memory until the next
// drain happens to overwrite the same indices. Called at every batch
// boundary (releaseQueue and abortBatch).
func (c *smCore) releaseBatchRefs() {
	rs := c.retiredSlots[:cap(c.retiredSlots)]
	for i := range rs {
		rs[i] = nil
	}
	c.retiredSlots = c.retiredSlots[:0]
	sl := c.slots[len(c.slots):cap(c.slots)]
	for i := range sl {
		sl[i] = nil
	}
	mq := c.memQ[:cap(c.memQ)]
	for i := range mq {
		mq[i].w = nil
		mq[i].in = nil
	}
	c.memQ = c.memQ[:0]
	aq := c.atomQ[:cap(c.atomQ)]
	for i := range aq {
		aq[i] = nil
	}
	c.atomQ = c.atomQ[:0]
}

// stageIssue advances the core by one cycle: every scheduler picks at most
// one ready warp and issues it. This is the parallel stage; it touches only
// core-owned state (plus the functional machine, which is safe for
// concurrent per-core stepping). Memory-system traffic and atomics are
// queued for the ordered phases that follow.
//
// The stage is event-driven. A scheduler that issues nothing sleeps until
// its wake cycle, the earliest cycle one of its warps leaves a memory or
// data stall; idle and barrier-only schedulers sleep with no wake. Until
// then each of its warps would be classified exactly as now, so the scan
// is skipped and its empty slots are charged later as a run. Only two
// events wake a scheduler early: addCTA gives it warps, or a barrier
// release frees warps it holds. Retirement removes only Done warps and
// wakes nobody. A core whose schedulers all sleep does no scan at all.
func (c *smCore) stageIssue(m *exec.Machine, now uint64) {
	c.issuedAny = false
	c.retiredSlots = c.retiredSlots[:0]
	c.err = nil
	c.errRunID = -1
	c.memQ = c.memQ[:0]
	c.atomQ = c.atomQ[:0]
	if now >= c.bucketEnd {
		// keep every stall run inside one sample bucket, so the series
		// grow in bucket order
		c.chargeStalls()
		c.bucketEnd = ^uint64(0)
		if iv := c.stats.interval; iv > 0 {
			c.bucketEnd = (now/iv + 1) * iv
		}
	}
	c.tickedTo = now + 1

	if now >= c.wakeAt {
		c.wakeAt = ^uint64(0)
		for sched := range c.scheds {
			st := &c.scheds[sched]
			if now >= st.wake {
				c.stepScheduler(m, st, now)
				if c.err != nil {
					// the schedulers after a faulting one are not
					// scanned this cycle, so their runs end before it
					for k := sched + 1; k < len(c.scheds); k++ {
						c.endStall(&c.scheds[k], now)
					}
					return
				}
			}
			c.wakeAt = min(c.wakeAt, st.wake)
		}
	}
	// When nothing issued, every scheduler's wake is its earliest warp
	// wakeup; barrier releases below never count towards it.
	c.nextAt = c.wakeAt

	// Release barriers and retire finished CTAs. Only a step changes a
	// warp's barrier or done state, so only CTAs that stepped (or
	// arrived) since the last check are looked at.
	if !c.stepped {
		return
	}
	c.stepped = false
	for si := 0; si < len(c.slots); si++ {
		s := c.slots[si]
		if !s.stepped {
			continue
		}
		s.stepped = false
		if s.cta.ReleaseBarrier() {
			for wi := 0; wi < len(s.warps) && wi < len(c.scheds); wi++ {
				c.scheds[wi].wake = 0
			}
			c.wakeAt = 0
		}
		if !s.done && s.cta.Done() {
			s.done = true
			c.retiredSlots = append(c.retiredSlots, s)
			c.warpsUsed -= len(s.warps)
			if s.run != nil {
				c.smemUsed -= s.run.smemPerCTA
			}
			c.slots = append(c.slots[:si], c.slots[si+1:]...)
			si--
			c.removeCTA(s)
		}
	}
}

// stepScheduler scans one awake scheduler's warps from its round-robin
// pointer and issues the first ready one. If none is ready it records
// the stall class and goes to sleep until the earliest warp wakeup.
func (c *smCore) stepScheduler(m *exec.Machine, st *schedState, now uint64) {
	cands := st.cands
	wake := ^uint64(0)
	live := 0
	sawData, sawBarrier, sawMem := false, false, false
	i := st.rr
	for range cands {
		w := cands[i]
		if i++; i == len(cands) {
			i = 0
		}
		if w.warp.Done {
			continue
		}
		live++
		if w.warp.AtBarrier {
			sawBarrier = true
			continue
		}
		if w.minIssueAt > now {
			sawMem = true
			wake = min(wake, w.minIssueAt)
			continue
		}
		if w.srcReadyAt > now {
			sawData = true
			wake = min(wake, w.srcReadyAt)
			continue
		}
		in := m.PeekWarp(w.cta, w.warp)
		if in == nil {
			// will retire on next step; issue it to make progress
			c.markStep(w)
			if err := m.StepWarpCov(w.cta, w.warp, c.cov, &c.info); err != nil {
				c.fail(st, w, now, err)
				return
			}
		} else if rdy, at := w.srcReady(in, now); !rdy {
			w.srcReadyAt = at
			sawData = true
			wake = min(wake, at)
			continue
		} else if in.Op == ptx.OpAtom {
			// Atomics read-modify-write memory that other cores may touch
			// in the same cycle. Defer both the functional execution and
			// the timing to the coordinator's sequential drain so the
			// interleaving is identical for every worker count.
			c.atomQ = append(c.atomQ, w)
		} else if err := c.issue(m, w, now); err != nil {
			c.fail(st, w, now, err)
			return
		}
		st.rr = i
		c.issuedAny = true
		c.endStall(st, now)
		st.wake = now + 1
		return
	}
	k := stallIdle
	switch {
	case live == 0:
	case sawBarrier:
		k = stallBarrier
	case sawData:
		k = stallData
	case sawMem:
		k = stallMem
	}
	if !st.stalled || st.stall != k {
		c.endStall(st, now)
		st.stalled, st.stall, st.stallFrom = true, k, now
	}
	st.wake = wake
}

// fail records a step error; the faulting scheduler's slot this cycle is
// not charged.
func (c *smCore) fail(st *schedState, w *warpCtx, now uint64, err error) {
	c.err = err
	c.errRunID = w.runID
	c.endStall(st, now)
}

// markStep flags w's CTA for the next barrier/retire check.
func (c *smCore) markStep(w *warpCtx) {
	w.slot.stepped = true
	c.stepped = true
}

// endStall charges a scheduler's pending stall run up to cycle end and
// closes it.
func (c *smCore) endStall(st *schedState, end uint64) {
	if st.stalled && end > st.stallFrom {
		c.stats.noteStalls(st.stall, st.stallFrom, end)
	}
	st.stalled = false
}

// chargeStalls charges every pending stall run up to the last ticked
// cycle; the runs stay open.
func (c *smCore) chargeStalls() {
	for i := range c.scheds {
		st := &c.scheds[i]
		if st.stalled && c.tickedTo > st.stallFrom {
			c.stats.noteStalls(st.stall, st.stallFrom, c.tickedTo)
			st.stallFrom = c.tickedTo
		}
	}
}

// skipStalls moves every pending stall run past a clock jump to cycle
// to. The drain loop charges the jumped cycles to every slot itself
// (Stats.addIdleBulk), so the runs must not.
func (c *smCore) skipStalls(to uint64) {
	c.chargeStalls()
	for i := range c.scheds {
		if st := &c.scheds[i]; st.stalled {
			st.stallFrom = to
		}
	}
}

// settleIssue closes every stall run and flushes the pending issue
// counts, so the shard is complete before it merges, and wakes every
// scheduler for the next batch.
func (c *smCore) settleIssue() {
	for i := range c.scheds {
		st := &c.scheds[i]
		c.endStall(st, c.tickedTo)
		st.wake = 0
	}
	c.wakeAt = 0
	c.stats.flushIssued()
}

// issue executes one warp instruction functionally and models its timing.
// It runs inside the parallel issue stage for ordinary instructions and
// inside the coordinator's sequential drain for atomics.
func (c *smCore) issue(m *exec.Machine, w *warpCtx, now uint64) error {
	e := c.eng
	info := &c.info
	c.markStep(w)
	if err := m.StepWarpCov(w.cta, w.warp, c.cov, info); err != nil {
		return err
	}
	lanes := popcount(info.ActiveMask)
	c.stats.noteIssue(c.id, now, info, lanes)
	if w.runID >= 0 && w.runID < len(c.runInstrs) {
		c.runInstrs[w.runID]++
	}

	if info.Inst == nil || info.Barrier || info.WarpDone {
		return nil
	}
	in := info.Inst

	if !info.IsMem {
		w.markDst(in, now+uint64(latencyClass(&e.cfg, in)))
		return nil
	}

	switch info.Space {
	case ptx.SpaceShared:
		conflict := sharedConflictDegree(info)
		lat := uint64(e.cfg.SharedLat + (conflict-1)*2)
		if info.IsStore {
			w.minIssueAt = now + uint64(conflict) // port serialization
		} else {
			w.markDst(in, now+lat)
		}
		c.stats.SharedAccesses++
	case ptx.SpaceLocal, ptx.SpaceGlobal, ptx.SpaceConst, ptx.SpaceNone:
		c.memIssue(info, w, now)
	case ptx.SpaceTex:
		// texture fetch: modelled as an L1/texture-cache hit latency
		w.markDst(in, now+uint64(e.cfg.L1HitLat))
		c.stats.TextureAccesses++
	case ptx.SpaceParam:
		w.markDst(in, now+uint64(e.cfg.ALULat))
	}
	return nil
}

// sharedConflictDegree computes the worst-case bank conflict among active
// lanes (32 banks of 4-byte words).
func sharedConflictDegree(info *exec.StepInfo) int {
	var counts [32]int
	var seen [32]uint64
	max := 1
	for l := 0; l < exec.WarpSize; l++ {
		if info.ActiveMask&(1<<l) == 0 {
			continue
		}
		bank := (info.Addrs[l] / 4) % 32
		word := info.Addrs[l] / 4
		// broadcast: same word does not conflict
		if counts[bank] > 0 && seen[bank] == word {
			continue
		}
		counts[bank]++
		seen[bank] = word
		if counts[bank] > max {
			max = counts[bank]
		}
	}
	return max
}
