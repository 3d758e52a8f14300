// Command perfbench is the repository benchmark. It drives one seeded
// workload through the public functions of the torch, cudnn, cudart,
// timing and serve packages, checks every operation against its CPU
// oracle, and prints the end-to-end metrics (or, with --trace 1, the
// per-layer metrics) as the last line of standard output:
//
//	{"correct":true,"attempted":12,"failed":0,"metrics":{"wall_s":{"value":1.9,"unit":"s"},...}}
//
// A run times several set-ups, then repeats the workload's pass — set-up
// on fresh engines, then the measured region — while the next pass is
// predicted to end within --seconds, and reports medians. Every pass of
// one seed must reproduce the same modelled digest. See README.md for
// the workloads, the metrics and the seeds.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// engineWorkers is the timing engine's host worker count in every
// workload: the simulation runs inline on one goroutine.
const engineWorkers = 1

// A run starts with set-up-only passes, so setup_s is a median of
// several set-ups even when one measured pass fills the run: at least
// minSetups, and up to maxSetups while they take under a tenth of the
// run.
const (
	minSetups = 5
	maxSetups = 15
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	smoke    bool
	commit   string
	calib    bool
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload to run: "+workloadNames())
	flag.Int64Var(&o.seed, "seed", 1, "input seed (weights, token ids, conv tensors, arrival times)")
	flag.Float64Var(&o.seconds, "seconds", 30, "measured seconds per run")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting the per-layer metrics")
	flag.BoolVar(&o.smoke, "smoke", false, "self-test every workload at a small size")
	flag.StringVar(&o.commit, "commit", "none", "source revision, recorded with the host facts")
	flag.BoolVar(&o.calib, "calibrator", false, "serve calibration units on standard input (the run's child process)")
	flag.Parse()
	o.trace = trace == 1

	var err error
	if trace != 0 && trace != 1 {
		err = fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	} else if o.calib {
		err = serveCalibrator()
	} else if o.smoke {
		err = smoke(o)
	} else {
		err = runWorkload(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// runWorkload is one benchmark run: passes of the workload until the
// time is up, then the result line.
func runWorkload(o options) error {
	w, ok := workloads[o.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q (want one of %s)", o.workload, workloadNames())
	}
	if o.seconds <= 0 {
		return fmt.Errorf("--seconds must be positive, got %g", o.seconds)
	}
	res, err := measure(w, o.seed, fullSize, o.seconds, o.trace)
	if err != nil {
		return err
	}
	printHost(o, res)
	fmt.Printf("model_digest %x\n", res.digest)
	var metrics map[string]metric
	if o.trace {
		metrics = res.layerMetrics()
	} else {
		metrics = res.endToEnd()
	}
	line, err := json.Marshal(result{
		Correct:   res.failed == 0,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runResult gathers the passes of one run. Its times are host seconds;
// scale, from all the run's calibration units, turns them into reference
// seconds (see calib.go).
type runResult struct {
	setups    []time.Duration // set-up time of every pass, set-up-only ones included
	passes    []*pass         // untraced passes (all passes of an untraced run)
	traced    []*pass         // traced passes (trace runs alternate the two)
	attempted int
	failed    int
	digest    [32]byte
	peakRSSMB float64
	scale     float64
	calUnits  int
}

// measure runs set-up-only passes, then measured passes of w
// while the next is predicted to end within `seconds` of the start (at
// least one; a traced run alternates untraced and traced passes and
// makes at least one of each, so the tracing overhead is measured in the
// same process). Calibration units run after every pass and between the
// measured calls.
func measure(w workload, seed int64, sz size, seconds float64, traced bool) (res *runResult, err error) {
	cal, err := startCalibrator()
	if err != nil {
		return nil, err
	}
	defer func() {
		if cerr := cal.close(); err == nil && cerr != nil {
			res, err = nil, cerr
		}
	}()
	res = &runResult{}
	start := time.Now()
	deadline := time.Duration(seconds * float64(time.Second))
	for i := 0; i < minSetups || i < maxSetups && time.Since(start) < deadline/10; i++ {
		p, err := runPass(w, seed, sz, passSetupOnly, cal)
		if err != nil {
			return nil, err
		}
		res.setups = append(res.setups, p.setup())
		cal.sample(1)
	}
	need := 1
	if traced {
		need = 2
	}
	var spent time.Duration // measured passes so far, to predict the next
	for i := 0; i < need || time.Since(start)+spent/time.Duration(i) <= deadline; i++ {
		mode := passMeasured
		if traced && i%2 == 1 {
			mode = passTraced
		}
		runtime.GC()
		t0 := time.Now()
		p, err := runPass(w, seed, sz, mode, cal)
		if err != nil {
			return nil, err
		}
		spent += time.Since(t0)
		cal.sample(1)
		if i == 0 {
			res.digest = p.digest
		} else if p.digest != res.digest {
			fmt.Fprintf(os.Stderr, "perfbench: pass %d digest %x differs from pass 1 (%x)\n", i+1, p.digest, res.digest)
			p.failed = p.ops
		}
		res.attempted += p.ops
		res.failed += p.failed
		res.setups = append(res.setups, p.setup())
		fmt.Fprintf(os.Stderr, "pass %d traced=%t setup_s=%.4f wall_s=%.4f ops=%d failed=%d\n",
			i+1, mode == passTraced, p.setup().Seconds(), p.wall.Seconds(), p.ops, p.failed)
		if mode == passTraced {
			res.traced = append(res.traced, p)
		} else {
			res.passes = append(res.passes, p)
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return nil, fmt.Errorf("getrusage: %w", err)
	}
	res.peakRSSMB = float64(ru.Maxrss) / 1024 // Maxrss is in KiB on Linux
	if cal.err != nil {
		return nil, fmt.Errorf("calibrator: %w", cal.err)
	}
	res.scale = cal.scale()
	res.calUnits = len(cal.times)
	return res, nil
}

// endToEnd returns the end-to-end metrics: medians over the untraced
// passes of host time in reference seconds, and the modelled totals
// every pass shares.
func (r *runResult) endToEnd() map[string]metric {
	p := r.passes[0]
	wall := r.wall() * r.scale
	return map[string]metric{
		"setup_s":          {r.setup() * r.scale, "s"},
		"wall_s":           {wall, "s"},
		"sim_minstr_per_s": {float64(p.sim.warpInstrs) / wall / 1e6, "Minstr/s"},
		"ns_per_sim_cycle": {wall * 1e9 / float64(p.simCycles), "ns/cycle"},
		"peak_rss_mb":      {r.peakRSSMB, "MB"},
		"sim_cycles":       {float64(p.simCycles), "cycles"},
	}
}

// wall and setup are the run's median measured-region and set-up times
// in host seconds.
func (r *runResult) wall() float64 {
	return median(r.passes, func(p *pass) float64 { return p.wall.Seconds() })
}

func (r *runResult) setup() float64 { return medianOf(seconds(r.setups)) }

func median(ps []*pass, f func(*pass) float64) float64 {
	v := make([]float64, len(ps))
	for i, p := range ps {
		v[i] = f(p)
	}
	return medianOf(v)
}

func seconds(ds []time.Duration) []float64 {
	v := make([]float64, len(ds))
	for i, d := range ds {
		v[i] = d.Seconds()
	}
	return v
}

func medianOf(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// printHost records the host facts the result depends on.
func printHost(o options, r *runResult) {
	facts := map[string]any{
		"workload":       o.workload,
		"seed":           o.seed,
		"passes":         len(r.passes) + len(r.traced),
		"setups":         len(r.setups),
		"host_cpus":      runtime.NumCPU(),
		"gomaxprocs":     runtime.GOMAXPROCS(0),
		"go_version":     runtime.Version(),
		"engine_workers": engineWorkers,
		"commit":         o.commit,
		"host_wall_s":    r.wall(),
		"host_setup_s":   r.setup(),
		"cal_units":      r.calUnits,
		"cal_scale":      r.scale,
	}
	if len(r.traced) > 0 {
		facts["trace_overhead_s"] = r.traceOverhead()
	}
	b, err := json.Marshal(facts)
	if err != nil {
		panic(err) // a map of plain values always marshals
	}
	fmt.Println("host", string(b))
}
