package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"time"

	"repro/internal/cudart"
	"repro/internal/exec"
	"repro/internal/timing"
)

// span is one timed call across a layer boundary; parent indexes the
// span that caused it (-1 for none).
type span struct {
	name       string
	start, end time.Duration // since the tracer's epoch
	parent     int
}

// tracer keeps a traced pass's spans in memory, plus the Go runtime
// readings taken around it.
type tracer struct {
	epoch time.Time
	spans []span
	stack []int
	cpu   bytes.Buffer // CPU profile of the pass

	region     []metrics.Sample // readings at the current measured region's start
	allocBytes float64          // heap bytes allocated inside measured regions
	gcCycles   float64          // GC cycles completed inside measured regions
	heapPeak   uint64           // live heap high-water mark at region ends

	gcCPU, allCPU float64 // GC and total CPU seconds over the whole pass
	profile       *cpuProfile
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) begin(name string) {
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.stack = append(t.stack, len(t.spans))
	t.spans = append(t.spans, span{name: name, start: time.Since(t.epoch), parent: parent})
}

func (t *tracer) end() {
	n := len(t.stack) - 1
	t.spans[t.stack[n]].end = time.Since(t.epoch)
	t.stack = t.stack[:n]
}

// selfTimes returns each span name's total self time: its spans'
// durations minus the parts their child spans cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	self := map[string]time.Duration{}
	for _, s := range t.spans {
		d := s.end - s.start
		self[s.name] += d
		if s.parent >= 0 {
			self[t.spans[s.parent].name] -= d
		}
	}
	return self
}

// totals returns each span name's total duration.
func (t *tracer) totals() map[string]time.Duration {
	tot := map[string]time.Duration{}
	for _, s := range t.spans {
		tot[s.name] += s.end - s.start
	}
	return tot
}

// Go runtime readings: the first three bracket each measured region, the
// last two the whole pass.
var runtimeMetrics = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/memory/classes/heap/objects:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime(n int) []metrics.Sample {
	s := make([]metrics.Sample, n)
	for i := range s {
		s[i].Name = runtimeMetrics[i]
	}
	metrics.Read(s)
	return s
}

func metricValue(v metrics.Value) float64 {
	switch v.Kind() {
	case metrics.KindUint64:
		return float64(v.Uint64())
	case metrics.KindFloat64:
		return v.Float64()
	}
	return 0
}

func (t *tracer) enterRegion() { t.region = readRuntime(3) }

func (t *tracer) leaveRegion() {
	now := readRuntime(3)
	t.allocBytes += metricValue(now[0].Value) - metricValue(t.region[0].Value)
	t.gcCycles += metricValue(now[1].Value) - metricValue(t.region[1].Value)
	t.heapPeak = max(t.heapPeak, now[2].Value.Uint64())
}

// seam wraps the timing engine's runner: it counts every launch and
// queued copy and, on traced passes, records each call into the engine
// as an "engine" span under the frontend span that caused it.
type seam struct {
	inner            timing.Runner
	tr               *tracer
	launches, copies uint64
}

func (s *seam) RunKernel(g *exec.Grid) (cudart.KernelStats, error) {
	s.launches++
	if s.tr != nil {
		s.tr.begin("engine")
		defer s.tr.end()
	}
	return s.inner.RunKernel(g)
}

func (s *seam) SubmitKernel(g *exec.Grid, stream int) (cudart.AsyncTicket, error) {
	s.launches++
	if s.tr != nil {
		s.tr.begin("engine")
		defer s.tr.end()
	}
	return s.inner.SubmitKernel(g, stream)
}

func (s *seam) SubmitCopy(stream, bytes int, apply func()) cudart.AsyncTicket {
	s.copies++
	if s.tr != nil {
		s.tr.begin("engine")
		defer s.tr.end()
	}
	return s.inner.SubmitCopy(stream, bytes, apply)
}

func (s *seam) DrainAll() error {
	if s.tr != nil {
		s.tr.begin("engine")
		defer s.tr.end()
	}
	return s.inner.DrainAll()
}

func (s *seam) ClockMHz() float64 { return s.inner.ClockMHz() }

// passMode selects what one pass does.
type passMode int

const (
	passSetupOnly passMode = iota // set-up alone, timed
	passMeasured                  // set-up and the measured region
	passTraced                    // as passMeasured, with spans, CPU profile and runtime readings
)

// runPass executes one pass of w; a traced pass also takes a CPU profile
// and the Go runtime readings around it.
func runPass(w workload, seed int64, sz size, mode passMode, cal *calibrator) (*pass, error) {
	traced := mode == passTraced
	p := newPass(traced)
	p.setupOnly = mode == passSetupOnly
	p.cal = cal
	var before []metrics.Sample
	if traced {
		before = readRuntime(len(runtimeMetrics))
		if err := pprof.StartCPUProfile(&p.tr.cpu); err != nil {
			return nil, fmt.Errorf("start CPU profile: %w", err)
		}
	}
	err := w.run(p, seed, sz)
	if traced {
		pprof.StopCPUProfile()
		runtime.GC() // settle the GC CPU-time estimates before reading them
		after := readRuntime(len(runtimeMetrics))
		p.tr.gcCPU = metricValue(after[3].Value) - metricValue(before[3].Value)
		p.tr.allCPU = metricValue(after[4].Value) - metricValue(before[4].Value)
		if err == nil {
			p.tr.profile, err = parseProfile(p.tr.cpu.Bytes())
		}
	}
	if err != nil {
		return nil, fmt.Errorf("%s pass: %w", w.name, err)
	}
	copy(p.digest[:], p.h.Sum(nil))
	return p, nil
}

// traceOverhead is the traced passes' median wall_s minus the untraced
// passes'.
func (r *runResult) traceOverhead() float64 {
	wall := func(p *pass) float64 { return p.wall.Seconds() }
	return median(r.traced, wall) - median(r.passes, wall)
}

// layerMetrics returns the per-layer metrics: host times and CPU shares
// averaged over the traced passes, modelled counts of one pass (every
// pass has the same).
func (r *runResult) layerMetrics() map[string]metric {
	m := map[string]metric{}
	set := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	n := float64(len(r.traced))
	var reg, eng, model, wall float64
	self, tot, bucketNS := map[string]float64{}, map[string]float64{}, map[string]float64{}
	var profNS, engineNS float64
	var allocs, gcCycles, gcCPU, allCPU, heapPeak float64
	for _, p := range r.traced {
		reg += p.phase.register.Seconds() / n
		eng += p.phase.engine.Seconds() / n
		model += p.phase.model.Seconds() / n
		wall += p.wall.Seconds() / n
		for k, v := range p.tr.selfTimes() {
			self[k] += v.Seconds() / n
		}
		for k, v := range p.tr.totals() {
			tot[k] += v.Seconds() / n
		}
		for k, v := range p.tr.profile.buckets {
			bucketNS[k] += v
		}
		profNS += p.tr.profile.total
		engineNS += p.tr.profile.engine
		allocs += p.tr.allocBytes / n
		gcCycles += p.tr.gcCycles / n
		gcCPU += p.tr.gcCPU
		allCPU += p.tr.allCPU
		heapPeak = max(heapPeak, float64(p.tr.heapPeak))
	}
	s := r.traced[0].sim
	cycles := float64(r.traced[0].simCycles)
	share := func(bucket string) float64 { return ratio(bucketNS[bucket], profNS) }

	set("setup.register_s", reg, "s")
	set("setup.engine_s", eng, "s")
	set("setup.model_s", model, "s")

	// The engine's host time comes from the runner seam's spans. serve.Run
	// installs its own runner, so there it is the serve span's time times
	// the share of profile samples taken inside a timing.Runner call.
	engineS := self["engine"]
	frontS := tot["torch"] + tot["cudnn"] + tot["serve"]
	if r.traced[0].serve != nil {
		engineS = tot["serve"] * ratio(engineNS, profNS)
	}
	launchS := frontS - engineS
	set("launch.count", float64(s.launches), "count")
	set("launch.copies", float64(s.copies), "count")
	set("launch.self_s", launchS, "s")
	set("launch.ns_per_launch", ratio(launchS*1e9, float64(s.launches)), "ns")
	set("launch.self_share", share(bucketLaunch), "share")

	detailed := float64(s.warpInstrs - s.replayedInstrs)
	set("exec.warp_instrs", float64(s.warpInstrs), "count")
	set("exec.thread_instrs", float64(s.threadInstrs), "count")
	set("exec.simt_eff", ratio(float64(s.threadInstrs), 32*detailed), "share")
	set("exec.self_share", share(bucketExec), "share")
	set("exec.ns_per_warp_instr", ratio(bucketNS[bucketExec]/n, detailed), "ns")

	set("timing.self_share", share(bucketTiming), "share")
	set("engine.drain_s", engineS, "s")
	set("engine.ns_per_sim_cycle", ratio(engineS*1e9, cycles), "ns/cycle")
	set("timing.ipc", ratio(float64(s.warpInstrs), cycles), "instr/cycle")
	set("timing.idle_slot_cycles", float64(s.idleSlots), "cycles")
	set("timing.stall_data_cycles", float64(s.stallSlots[0]), "cycles")
	set("timing.stall_barrier_cycles", float64(s.stallSlots[1]), "cycles")
	set("timing.stall_mem_cycles", float64(s.stallSlots[2]), "cycles")
	set("timing.ff_ratio", ratio(float64(s.ffCycles), cycles), "share")

	set("mem.self_share", share(bucketMem), "share")
	set("mem.l1_accesses", float64(s.l1), "count")
	set("mem.l2_accesses", float64(s.l2), "count")
	set("mem.l2_hit_rate", ratio(float64(s.l2Hits), float64(s.l2)), "share")
	set("mem.l2_writebacks", float64(s.l2Writebacks), "count")
	set("mem.dram_accesses", float64(s.dram), "count")
	set("mem.dram_row_hit_rate", ratio(float64(s.dramRowHits), float64(s.dram)), "share")
	set("mem.dram_bank_imbalance", s.bankImbalance, "ratio")
	set("mem.avg_seg_latency_cycles", ratio(float64(s.segCycles), float64(s.segServed)), "cycles")
	set("mem.ingress_stall_cycles", float64(s.ingressStall), "cycles")
	set("mem.mshr_full", float64(s.mshrFull), "count")

	hits := float64(s.replayHits)
	set("replay.hits", hits, "count")
	set("replay.misses", float64(s.replayMisses), "count")
	set("replay.coverage", ratio(hits, hits+float64(s.replayMisses+s.replayResamples)), "share")
	set("replay.memo_applied", float64(s.memoApplied), "count")
	set("replay.memo_ratio", ratio(float64(s.memoApplied), hits), "share")
	set("replay.reexec", float64(s.replayHits-s.memoApplied), "count")
	set("replay.self_share", share(bucketReplay), "share")

	serveLayer(r.traced[0], tot["serve"], set)

	set("go.alloc_bytes_per_launch", ratio(allocs, float64(s.launches)), "B")
	set("go.gc_cycles", gcCycles, "count")
	set("go.gc_share", ratio(gcCPU, allCPU), "share")
	set("go.heap_peak_mb", heapPeak/(1<<20), "MB")

	set("trace.overhead_s", r.traceOverhead(), "s")
	set("trace.wall_s", wall, "s")

	// Host times are in reference seconds, as the end-to-end ones are.
	for k, v := range m {
		switch v.Unit {
		case "s", "ns", "ns/cycle":
			m[k] = metric{v.Value * r.scale, v.Unit}
		}
	}
	return m
}

// serveLayer sets the serve layer's metrics from a pass's serve.Result
// (zero on workloads that do not serve). A pass serves too few requests
// for a latency percentile with 10 requests beyond it, so latency and
// time to first token are means; serve.requests states the sample count.
func serveLayer(p *pass, runS float64, set func(string, float64, string)) {
	var requests, iterations, peakBatch, util, goodput, latency, ttft, peakKV float64
	if res := p.serve; res != nil {
		requests = float64(len(res.Requests))
		iterations = float64(res.Iterations)
		peakBatch = float64(res.PeakBatch)
		util = res.Utilization()
		goodput = res.Goodput()
		latency = mean(res.Latencies())
		ttft = mean(res.TTFTs())
		peakKV = float64(res.PeakKVBytes)
	}
	set("serve.run_s", runS, "s")
	set("serve.requests", requests, "count")
	set("serve.iterations", iterations, "count")
	set("serve.peak_batch", peakBatch, "count")
	set("serve.utilization", util, "share")
	set("serve.goodput_per_mcycle", goodput, "req/Mcycle")
	set("serve.latency_mean_cycles", latency, "cycles")
	set("serve.ttft_mean_cycles", ttft, "cycles")
	set("serve.peak_kv_bytes", peakKV, "B")
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var sum float64
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}
