package timing

import "repro/internal/exec"

type stallKind int

const (
	stallIdle stallKind = iota
	stallData
	stallBarrier
	stallMem
	numStallKinds
)

// StallNames labels the warp-issue breakdown categories (W0 variants in
// the AerialVision warp plots).
var StallNames = [numStallKinds]string{"W0_idle", "W0_data_hazard", "W0_barrier", "W0_memory"}

// MemCounters is one kernel's (or one partition shard's) view of the
// shared memory system: L2 outcomes, DRAM demand traffic and row-buffer
// locality, and the cycles its segments spent stalled on partition
// ingress/MSHR/port reservations. Addition is commutative, so shards can
// be merged in any order.
type MemCounters struct {
	L2Accesses   uint64
	L2Hits       uint64
	L2Misses     uint64 // demand misses sent to DRAM (incl. MSHR-bypass)
	DRAMAccesses uint64
	DRAMRowHits  uint64
	StallCycles  uint64 // ingress/port/MSHR reservation waits, summed over segments
	SegCycles    uint64 // issue-to-response latency, summed over serviced segments
	SegServed    uint64 // partition-serviced segment count
}

func (m *MemCounters) add(o MemCounters) {
	m.L2Accesses += o.L2Accesses
	m.L2Hits += o.L2Hits
	m.L2Misses += o.L2Misses
	m.DRAMAccesses += o.DRAMAccesses
	m.DRAMRowHits += o.DRAMRowHits
	m.StallCycles += o.StallCycles
	m.SegCycles += o.SegCycles
	m.SegServed += o.SegServed
}

// issueCounts is one bucket's warp-instruction count and active-lane
// histogram for one core. The bucket spans cycles [from, to).
type issueCounts struct {
	from, to uint64
	core     int
	ipc      uint32
	lanes    [32]uint32
}

// KernelSample records one kernel's timing outcome, including its share
// of the memory-system traffic (attributed per grid by the partition
// shards, merged at retirement).
type KernelSample struct {
	Name   string
	Cycles uint64
	Instrs uint64
	Mem    MemCounters
}

// Stats accumulates engine-wide counters and AerialVision time series.
type Stats struct {
	interval uint64
	numSMs   int
	scheds   int
	// base is the bucket offset of index 0 in the series below. The
	// engine-wide accumulator keeps base 0 (absolute buckets); per-core
	// shards are rebased to the kernel's start bucket each launch so a
	// shard's series — and the cost of merging it — stays proportional
	// to the kernel's own length, not to the engine's total run length.
	base uint64

	Instructions uint64 // warp instructions committed
	ThreadInstrs uint64 // lane-instructions committed

	ALUOps          uint64
	SFUOps          uint64
	L1Accesses      uint64
	L2Accesses      uint64
	L2Hits          uint64
	L2Misses        uint64
	L2Writebacks    uint64 // dirty L2 evictions turned into DRAM write traffic
	DRAMAccesses    uint64
	DRAMRowHits     uint64
	NoCFlits        uint64
	SharedAccesses  uint64
	TextureAccesses uint64
	MemInstructions uint64
	MemSegments     uint64
	MSHRFull        uint64
	IdleSlotCycles  uint64

	// IngressStallCycles sums, over all partition-serviced segments, the
	// cycles each spent waiting on a partition ingress slot, L2 port or
	// L2 MSHR reservation (the bandwidth-aware hierarchy's back-pressure).
	IngressStallCycles uint64
	// SegCycles/SegServed track total and count of partition-serviced
	// segment latencies (issue to response), for AvgSegmentLatency.
	SegCycles uint64
	SegServed uint64

	// FastForwardedCycles counts cycles the drain loop's idle-cycle
	// fast-forward bridged instead of ticking (machine fully stalled on
	// memory and/or the copy engine). They are already charged to the
	// stall series and IdleSlotCycles — this counter only reports how
	// much simulated time the event jump skipped. Purely a wall-clock
	// optimisation: modelled cycle counts are identical either way.
	FastForwardedCycles uint64

	// Hybrid replay counters (Config.ReplayEnabled, see replay.go).
	// ReplayHits counts launches retired from a memoized entry;
	// ReplayMisses counts launches simulated in detail because no entry
	// existed; ReplayResamples counts hits deliberately re-run in detail
	// by the ReplayResampleEvery cadence. ReplayedCycles sums the
	// memoized durations of replayed launches; DetailedKernelCycles sums
	// the durations of kernels simulated in detail (always maintained,
	// so the two split total kernel time when replay is on).
	// ReplayDriftCycles sums |resampled − memoized| over re-samples —
	// the measured error of the replay approximation. ReplayMemoApplied
	// counts the hits whose functional effect came from a validated
	// write-set memo (exec.GridMemo) instead of re-interpretation — the
	// wall-clock fast path; the remaining hits re-executed functionally.
	ReplayHits           uint64
	ReplayMisses         uint64
	ReplayResamples      uint64
	ReplayedCycles       uint64
	DetailedKernelCycles uint64
	ReplayDriftCycles    uint64
	ReplayMemoApplied    uint64

	// AerialVision series. A bucket counts issue-slot events, at most
	// SampleInterval × NumSMs × SchedulersPerSM per engine, which
	// timing.New requires to fit in 32 bits.
	coreIPC   []series // [core] warp instructions issued
	laneCount []series // [active lanes 1..32 -> idx 0..31]
	stalls    [numStallKinds]series

	// issued holds a core shard's issue counts for the bucket being
	// ticked; flushIssued moves them into coreIPC and laneCount when the
	// bucket changes and before the shard is merged.
	issued issueCounts

	// PerKernel holds one sample per retired kernel launch, in retirement
	// order, each carrying its attributed memory counters.
	PerKernel []KernelSample
}

func newStats(cfg Config) *Stats {
	s := &Stats{
		interval: uint64(cfg.SampleInterval),
		numSMs:   cfg.NumSMs,
		scheds:   cfg.SchedulersPerSM,
		coreIPC:  make([]series, cfg.NumSMs),
	}
	s.laneCount = make([]series, 32)
	return s
}

func (s *Stats) noteIssue(core int, cycle uint64, info *exec.StepInfo, lanes int) {
	s.Instructions++
	s.ThreadInstrs += uint64(lanes)
	if info.Inst != nil {
		if isSFU(info.Inst.Op) {
			s.SFUOps += uint64(lanes)
		} else {
			s.ALUOps += uint64(lanes)
		}
	}
	if s.interval == 0 {
		return
	}
	a := &s.issued
	if cycle < a.from || cycle >= a.to || core != a.core {
		s.flushIssued()
		a.from = cycle - cycle%s.interval
		a.to, a.core = a.from+s.interval, core
	}
	a.ipc++
	if lanes >= 1 {
		a.lanes[lanes-1]++
	}
}

// flushIssued adds the pending bucket's issue counts to the series.
func (s *Stats) flushIssued() {
	a := &s.issued
	if a.ipc == 0 {
		return
	}
	b := a.from/s.interval - s.base
	s.coreIPC[a.core].add(b, uint64(a.ipc))
	for i, n := range a.lanes {
		if n != 0 {
			s.laneCount[i].add(b, uint64(n))
		}
	}
	a.ipc, a.lanes = 0, [32]uint32{}
}

// noteStalls charges one scheduler's issue slots over cycles [from, to)
// to stall class k, as a per-cycle walk would one slot at a time.
func (s *Stats) noteStalls(k stallKind, from, to uint64) {
	if k == stallIdle {
		s.IdleSlotCycles += to - from
	}
	if s.interval == 0 {
		return
	}
	for c := from; c < to; {
		b := c / s.interval
		end := min((b+1)*s.interval, to)
		s.stalls[k].add(b-s.base, end-c)
		c = end
	}
}

// addIdleBulk charges fast-forwarded cycles to the memory-stall category
// (the machine was waiting on outstanding memory when it fast-forwards).
func (s *Stats) addIdleBulk(from, span uint64, cfg Config) {
	slots := span * uint64(cfg.NumSMs*cfg.SchedulersPerSM)
	s.IdleSlotCycles += slots
	if s.interval == 0 {
		return
	}
	for c := from; c < from+span; c += s.interval {
		b := c / s.interval
		width := s.interval - c%s.interval
		if c+width > from+span {
			width = from + span - c
		}
		s.stalls[stallMem].add(b, width*uint64(cfg.NumSMs*cfg.SchedulersPerSM))
	}
}

// NewStats returns an empty engine-shaped accumulator for cfg, for
// callers that fold several engines' statistics into one node-wide view
// (the multi-GPU driver merges per-device stats in rank order).
func NewStats(cfg Config) *Stats { return newStats(cfg) }

// Merge folds another engine's accumulated statistics into s: counters
// and time series add, and o's per-kernel samples append in retirement
// order. Both sides must be shaped for the same Config (same SM count).
// A merged series bucket sums the engines' buckets, so it holds up to
// the engine count times the per-engine bound of 32 bits checked by New.
// Merging per-device stats in a fixed rank order keeps the result
// byte-identical for any host worker count.
func (s *Stats) Merge(o *Stats) {
	s.merge(o)
	s.PerKernel = append(s.PerKernel, o.PerKernel...)
}

// merge adds another Stats' counters and time series into s. The engine
// gives each SM core its own shard so the parallel issue stage never
// contends on (or races over) the shared accumulators; shards are merged
// here at kernel boundaries. Addition is commutative, so the merged result
// is independent of worker scheduling.
func (s *Stats) merge(o *Stats) {
	s.Instructions += o.Instructions
	s.ThreadInstrs += o.ThreadInstrs
	s.ALUOps += o.ALUOps
	s.SFUOps += o.SFUOps
	s.L1Accesses += o.L1Accesses
	s.L2Accesses += o.L2Accesses
	s.L2Hits += o.L2Hits
	s.L2Misses += o.L2Misses
	s.L2Writebacks += o.L2Writebacks
	s.DRAMAccesses += o.DRAMAccesses
	s.DRAMRowHits += o.DRAMRowHits
	s.NoCFlits += o.NoCFlits
	s.SharedAccesses += o.SharedAccesses
	s.TextureAccesses += o.TextureAccesses
	s.MemInstructions += o.MemInstructions
	s.MemSegments += o.MemSegments
	s.MSHRFull += o.MSHRFull
	s.IdleSlotCycles += o.IdleSlotCycles
	s.IngressStallCycles += o.IngressStallCycles
	s.SegCycles += o.SegCycles
	s.SegServed += o.SegServed
	s.FastForwardedCycles += o.FastForwardedCycles
	s.ReplayHits += o.ReplayHits
	s.ReplayMisses += o.ReplayMisses
	s.ReplayResamples += o.ReplayResamples
	s.ReplayedCycles += o.ReplayedCycles
	s.DetailedKernelCycles += o.DetailedKernelCycles
	s.ReplayDriftCycles += o.ReplayDriftCycles
	s.ReplayMemoApplied += o.ReplayMemoApplied
	for c := range o.coreIPC {
		s.coreIPC[c].merge(&o.coreIPC[c], o.base)
	}
	for i := range o.laneCount {
		s.laneCount[i].merge(&o.laneCount[i], o.base)
	}
	for k := range o.stalls {
		s.stalls[k].merge(&o.stalls[k], o.base)
	}
}

// rebase marks the kernel-start bucket of a per-core shard so its series
// indices are kernel-relative.
func (s *Stats) rebase(cycle uint64) {
	if s.interval > 0 {
		s.base = cycle / s.interval
	}
}

// reset clears a shard for reuse, keeping allocated series storage.
func (s *Stats) reset() {
	kernels := s.PerKernel
	interval, numSMs, scheds := s.interval, s.numSMs, s.scheds
	coreIPC, laneCount, stalls := s.coreIPC, s.laneCount, s.stalls
	*s = Stats{interval: interval, numSMs: numSMs, scheds: scheds}
	for i := range coreIPC {
		coreIPC[i].reset()
	}
	for i := range laneCount {
		laneCount[i].reset()
	}
	for i := range stalls {
		stalls[i].reset()
	}
	s.coreIPC, s.laneCount, s.stalls = coreIPC, laneCount, stalls
	s.PerKernel = kernels[:0]
}

func (s *Stats) noteKernel(name string, cycles, instrs uint64, mem MemCounters) {
	s.PerKernel = append(s.PerKernel, KernelSample{Name: name, Cycles: cycles, Instrs: instrs, Mem: mem})
}

// AvgSegmentLatency returns the mean issue-to-response latency of the
// segments the partitions serviced — the load-dependent number the
// bandwidth-aware hierarchy exists to produce (a lightly loaded machine
// sees raw L2/DRAM latency; a saturated one sees queueing on top).
func (s *Stats) AvgSegmentLatency() float64 {
	if s.SegServed == 0 {
		return 0
	}
	return float64(s.SegCycles) / float64(s.SegServed)
}

// ReplayCoverage returns the fraction of kernel launches retired from
// the replay cache: hits / (hits + misses + resamples). 0 when replay
// is disabled or no kernel has been launched.
func (s *Stats) ReplayCoverage() float64 {
	total := s.ReplayHits + s.ReplayMisses + s.ReplayResamples
	if total == 0 {
		return 0
	}
	return float64(s.ReplayHits) / float64(total)
}

// Interval returns the sample bucket width in cycles.
func (s *Stats) Interval() uint64 { return s.interval }

// GlobalIPCSeries returns total warp instructions per bucket across all
// shaders divided by the bucket width (the paper's global IPC plot).
func (s *Stats) GlobalIPCSeries() []float64 {
	var n uint64
	for _, c := range s.coreIPC {
		n = max(n, c.n)
	}
	out := make([]float64, n)
	for _, c := range s.coreIPC {
		c.addTo(out, 1)
	}
	for i := range out {
		out[i] /= float64(s.interval)
	}
	return out
}

// ShaderIPCSeries returns per-core instructions per cycle per bucket
// (the paper's shader IPC plot: y-axis is the shader core number).
func (s *Stats) ShaderIPCSeries() [][]float64 {
	out := make([][]float64, len(s.coreIPC))
	for c := range s.coreIPC {
		out[c] = make([]float64, s.coreIPC[c].n)
		s.coreIPC[c].addTo(out[c], float64(s.interval))
	}
	return out
}

// WarpIssueBreakdown returns the warp plot series: first the W0 stall
// categories, then W1..W32 (issued warps by active lane count), per
// bucket, as fractions of issue slots.
func (s *Stats) WarpIssueBreakdown() (names []string, rows [][]float64) {
	var n uint64
	for _, st := range s.stalls {
		n = max(n, st.n)
	}
	for _, lc := range s.laneCount {
		n = max(n, lc.n)
	}
	slotsPerBucket := float64(s.interval) * float64(s.numSMs*s.scheds)
	for k := stallKind(0); k < numStallKinds; k++ {
		names = append(names, StallNames[k])
		row := make([]float64, n)
		s.stalls[k].addTo(row, slotsPerBucket)
		rows = append(rows, row)
	}
	for lanes := 1; lanes <= 32; lanes++ {
		names = append(names, wName(lanes))
		row := make([]float64, n)
		s.laneCount[lanes-1].addTo(row, slotsPerBucket)
		rows = append(rows, row)
	}
	return names, rows
}

func wName(lanes int) string {
	const digits = "0123456789"
	if lanes < 10 {
		return "W" + digits[lanes:lanes+1]
	}
	return "W" + digits[lanes/10:lanes/10+1] + digits[lanes%10:lanes%10+1]
}

// TotalIPC returns whole-run warp IPC over the given cycle span.
func (s *Stats) TotalIPC(cycles uint64) float64 {
	if cycles == 0 {
		return 0
	}
	return float64(s.Instructions) / float64(cycles)
}
