package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math"
	"os"
	"runtime/pprof"
	"slices"
	"time"

	"repro/internal/cudart"
	"repro/internal/exec"
	"repro/internal/serve"
	"repro/internal/timing"
	"repro/internal/torch"
)

// size is how much work one pass of each workload does.
type size struct {
	trainSteps    int
	inferIters    int
	conv          convShape
	serveRequests int
}

// fullSize is the measured size; smokeSize runs every workload in
// seconds for the self-test. serve_decode's pass is one serve.Run call,
// so it serves few requests to leave room for several passes in a run.
var (
	fullSize  = size{trainSteps: 3, inferIters: 1500, conv: defaultConv, serveRequests: 6}
	smokeSize = size{trainSteps: 1, inferIters: 3, conv: convShape{N: 1, C: 2, H: 8, W: 8, K: 2, R: 3, Pad: 1}, serveRequests: 3}
)

// phases is a pass's set-up time split by layer: PTX corpus parse and
// registration (torch.NewDevice), engine construction (timing.New), and
// model build with its weight upload.
type phases struct {
	register, engine, model time.Duration
}

// pass is one execution of a workload: set-up on fresh engines, then the
// measured region, with every op checked against its oracle.
type pass struct {
	phase     phases
	wall      time.Duration // host time inside the measured region
	ops       int
	failed    int
	simCycles uint64 // modelled engine cycles, summed over the pass's engines
	sim       simCounters
	h         hash.Hash // model digest: cycles, kernel log, replay counters, outputs
	digest    [32]byte
	serve     *serve.Result // serve_decode only
	setupOnly bool          // stop after set-up

	tr  *tracer     // nil on untraced passes
	cal *calibrator // samples the host between measured calls
}

func newPass(traced bool) *pass {
	p := &pass{h: sha256.New()}
	if traced {
		p.tr = newTracer()
	}
	return p
}

func (p *pass) setup() time.Duration { return p.phase.register + p.phase.engine + p.phase.model }

// rig is one simulated GPU as the benchmark drives it: a device with the
// kernel library registered, a timing engine, and the runner seam that
// counts (and, traced, times) every call into the engine.
type rig struct {
	dev  *torch.Device
	eng  *timing.Engine
	seam *seam
}

// newRig builds a device and engine, timing each as set-up.
func (p *pass) newRig(cfg timing.Config) (*rig, error) {
	t0 := time.Now()
	dev, err := torch.NewDevice(exec.BugSet{})
	if err != nil {
		return nil, fmt.Errorf("new device: %w", err)
	}
	t1 := time.Now()
	eng, err := timing.New(cfg, timing.WithWorkers(engineWorkers))
	if err != nil {
		return nil, fmt.Errorf("new engine: %w", err)
	}
	t2 := time.Now()
	p.phase.register += t1.Sub(t0)
	p.phase.engine += t2.Sub(t1)
	s := &seam{inner: timing.Runner{E: eng}, tr: p.tr}
	dev.Ctx.SetRunner(s)
	return &rig{dev: dev, eng: eng, seam: s}, nil
}

// buildModel times model construction and weight upload as set-up.
func (p *pass) buildModel(f func() error) error {
	t0 := time.Now()
	err := f()
	p.phase.model += time.Since(t0)
	return err
}

// measuredLabels marks CPU-profile samples taken inside measured regions.
var measuredLabels = pprof.WithLabels(context.Background(), pprof.Labels("region", "measured"))

// measured runs one call into the frontend layer `layer` inside the
// measured region: it adds to the pass's wall time and, traced, records
// a span and labels the CPU profile samples.
func (p *pass) measured(layer string, f func() error) error {
	if p.tr != nil {
		p.tr.enterRegion()
		pprof.SetGoroutineLabels(measuredLabels)
		p.tr.begin(layer)
	}
	t0 := time.Now()
	err := f()
	d := time.Since(t0)
	p.wall += d
	if p.tr != nil {
		p.tr.end()
		pprof.SetGoroutineLabels(context.Background())
		p.tr.leaveRegion()
	}
	p.cal.measured(d)
	return err
}

// check records one op: failed when err is non-nil.
func (p *pass) check(op string, err error) {
	p.ops++
	if err != nil {
		p.failed++
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", op, err)
	}
}

// abort records the `left` ops a pass could not run after an error.
func (p *pass) abort(left int) {
	p.ops += left
	p.failed += left
}

func (p *pass) hashU64(vs ...uint64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], v)
		p.h.Write(b[:])
	}
}

func (p *pass) hashF32(vs []float32) {
	b := make([]byte, 4*len(vs))
	for i, v := range vs {
		binary.LittleEndian.PutUint32(b[4*i:], math.Float32bits(v))
	}
	p.h.Write(b)
}

func (p *pass) hashI32(vs []int32) {
	b := make([]byte, 4*len(vs))
	for i, v := range vs {
		binary.LittleEndian.PutUint32(b[4*i:], uint32(v))
	}
	p.h.Write(b)
}

// collect folds one engine's modelled outcome into the pass: counters,
// and the digest over its cycles, kernel log and replay counters.
func (p *pass) collect(cfg timing.Config, cycles uint64, st *timing.Stats, log []cudart.KernelStats) {
	p.simCycles += cycles
	p.sim.add(cfg, st, log)
	p.hashU64(cycles, uint64(len(log)))
	for _, k := range log {
		p.h.Write([]byte(k.Name))
		replayed := uint64(0)
		if k.Replayed {
			replayed = 1
		}
		p.hashU64(k.Cycles, k.WarpInstrs, k.L2Accesses, k.L2Hits, k.L2Misses,
			k.DRAMAccesses, k.DRAMRowHits, k.MemStallCycles, replayed)
	}
	p.hashU64(st.ReplayHits, st.ReplayMisses, st.ReplayResamples, st.ReplayMemoApplied,
		st.ReplayedCycles, st.DetailedKernelCycles)
}

// collectRig collects a rig's engine, including its launch counts.
func (p *pass) collectRig(r *rig) {
	p.sim.launches += r.seam.launches
	p.sim.copies += r.seam.copies
	p.sim.bankImbalance = max(p.sim.bankImbalance, bankImbalance(r.eng))
	p.collect(r.eng.Config(), r.eng.Cycle(), r.eng.Stats(), r.dev.Ctx.KernelStatsLog())
}

// freeTransients releases every allocation not in keep, in address
// order, so the first-fit allocator re-issues identical addresses on the
// next iteration.
func freeTransients(dev *torch.Device, keep map[uint64]bool) error {
	live := dev.Ctx.Alloc.LiveAllocations()
	slices.Sort(live)
	for _, a := range live {
		if !keep[a] {
			if err := dev.Ctx.Free(a); err != nil {
				return fmt.Errorf("free %#x: %w", a, err)
			}
		}
	}
	return nil
}

// liveSet snapshots the device's live allocations (the persistent model
// state).
func liveSet(dev *torch.Device) map[uint64]bool {
	keep := map[uint64]bool{}
	for _, a := range dev.Ctx.Alloc.LiveAllocations() {
		keep[a] = true
	}
	return keep
}

// simCounters are the modelled per-layer counts of one pass, summed over
// its engines.
type simCounters struct {
	launches, copies uint64 // calls through the runner seam

	warpInstrs     uint64 // replayed launches included
	replayedInstrs uint64
	threadInstrs   uint64 // detailed launches only
	idleSlots      uint64
	stallSlots     [3]uint64 // data hazard, barrier, memory (issue slots)
	ffCycles       uint64

	l1, l2, l2Hits, l2Writebacks, dram, dramRowHits uint64
	segCycles, segServed, ingressStall, mshrFull    uint64
	bankImbalance                                   float64 // max over engines

	replayHits, replayMisses, replayResamples, memoApplied uint64
}

func (s *simCounters) add(cfg timing.Config, st *timing.Stats, log []cudart.KernelStats) {
	s.warpInstrs += st.Instructions
	for _, k := range log {
		if k.Replayed {
			s.replayedInstrs += k.WarpInstrs
		}
	}
	s.threadInstrs += st.ThreadInstrs
	s.idleSlots += st.IdleSlotCycles
	s.ffCycles += st.FastForwardedCycles
	// The issue breakdown is per-bucket fractions of issue slots; scale
	// back to slot counts.
	slots := float64(st.Interval()) * float64(cfg.NumSMs*cfg.SchedulersPerSM)
	_, series := st.WarpIssueBreakdown()
	for k := range s.stallSlots {
		var sum float64
		for _, v := range series[k+1] { // series[0] is W0_idle
			sum += v
		}
		s.stallSlots[k] += uint64(math.Round(sum * slots))
	}
	s.l1 += st.L1Accesses
	s.l2 += st.L2Accesses
	s.l2Hits += st.L2Hits
	s.l2Writebacks += st.L2Writebacks
	s.dram += st.DRAMAccesses
	s.dramRowHits += st.DRAMRowHits
	s.segCycles += st.SegCycles
	s.segServed += st.SegServed
	s.ingressStall += st.IngressStallCycles
	s.mshrFull += st.MSHRFull
	s.replayHits += st.ReplayHits
	s.replayMisses += st.ReplayMisses
	s.replayResamples += st.ReplayResamples
	s.memoApplied += st.ReplayMemoApplied
}

// bankImbalance is max ÷ mean busy cycles over every DRAM bank of the
// engine: 1 is perfectly balanced, large values are bank camping.
func bankImbalance(eng *timing.Engine) float64 {
	var sum, top float64
	n := 0
	for _, ch := range eng.Partitions() {
		for _, b := range ch.Banks {
			v := float64(b.BusyCycles)
			sum += v
			top = max(top, v)
			n++
		}
	}
	if sum == 0 {
		return 0
	}
	return top / (sum / float64(n))
}
