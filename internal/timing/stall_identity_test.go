package timing

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/cudart"
	"repro/internal/cudnn"
	"repro/internal/device"
	"repro/internal/exec"
	"repro/internal/torch"
)

// legacyRunner is a cudart runner that drains through the reference
// loop (drainLegacyForTest), and with it the full-scan issue stage.
type legacyRunner struct {
	e       *Engine
	workers int
}

func (r legacyRunner) RunKernel(g *exec.Grid) (cudart.KernelStats, error) {
	t, err := r.e.submit(g, 0, 0, nil)
	if err != nil {
		return cudart.KernelStats{}, err
	}
	if err := r.e.drainLegacyForTest(r.workers); err != nil {
		return cudart.KernelStats{}, err
	}
	return t.stats, t.err
}

func (r legacyRunner) SubmitKernel(g *exec.Grid, stream int) (cudart.AsyncTicket, error) {
	return r.e.Submit(g, stream)
}

func (r legacyRunner) SubmitCopy(stream, bytes int, apply func()) cudart.AsyncTicket {
	return r.e.SubmitCopy(stream, bytes, apply)
}

func (r legacyRunner) DrainAll() error { return r.e.drainLegacyForTest(r.workers) }

func (r legacyRunner) ClockMHz() float64 { return r.e.cfg.ClockMHz }

// stallRun is everything TestIssueStageStallIdentity compares.
type stallRun struct {
	Cycles uint64
	Log    []cudart.KernelStats
	Stats  Stats
	Mem    *device.Snapshot
}

// runStallCase runs one workload on a fresh device through the
// production drain (event-driven issue stage) or the reference loop.
func runStallCase(t *testing.T, cfg Config, work func(*testing.T, *torch.Device, *Engine, bool) []cudart.KernelStats, workers int, legacy bool) stallRun {
	t.Helper()
	dev, err := torch.NewDevice(exec.BugSet{})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(cfg, WithWorkers(workers))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if legacy {
		dev.Ctx.SetRunner(legacyRunner{e: eng, workers: workers})
	} else {
		dev.Ctx.SetRunner(Runner{E: eng})
	}
	direct := work(t, dev, eng, legacy)
	return stallRun{
		Cycles: eng.Cycle(),
		Log:    append(append([]cudart.KernelStats(nil), dev.Ctx.KernelStatsLog()...), direct...),
		Stats:  *eng.Stats(),
		Mem:    dev.Ctx.M.Mem.Snapshot(),
	}
}

// stallSynth uploads n deterministic floats.
func stallSynth(t *testing.T, ctx *cudart.Context, n int, scale float32) uint64 {
	t.Helper()
	v := make([]float32, n)
	for i := range v {
		v[i] = scale * float32((i*37)%23-11) / 11
	}
	p, err := ctx.Malloc(uint64(4 * n))
	if err != nil {
		t.Fatal(err)
	}
	ctx.MemcpyF32HtoD(p, v)
	return p
}

// stallConvForward runs one forward convolution of the conv sweep's
// default shape (8×28×28 input, eight 3×3 filters, pad 1).
func stallConvForward(algo cudnn.ConvFwdAlgo) func(*testing.T, *torch.Device, *Engine, bool) []cudart.KernelStats {
	return func(t *testing.T, dev *torch.Device, _ *Engine, _ bool) []cudart.KernelStats {
		xd := cudnn.TensorDesc{N: 1, C: 8, H: 28, W: 28}
		fd := cudnn.FilterDesc{K: 8, C: 8, R: 3, S: 3}
		cd := cudnn.ConvDesc{Pad: 1, Stride: 1}
		yd := cudnn.TensorDesc{N: 1, C: 8, H: cd.OutDim(28, 3), W: cd.OutDim(28, 3)}
		px := stallSynth(t, dev.Ctx, xd.Count(), 0.7)
		pw := stallSynth(t, dev.Ctx, fd.Count(), -0.3)
		py, err := dev.Ctx.Malloc(uint64(4 * yd.Count()))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := dev.H.ConvolutionForward(algo, px, xd, pw, fd, cd, py); err != nil {
			t.Fatal(err)
		}
		return nil
	}
}

// stallTrain runs three training steps of an 8-token sequence.
func stallTrain(t *testing.T, dev *torch.Device, _ *Engine, _ bool) []cudart.KernelStats {
	cfg := torch.TransformerConfig{Layers: 2, Heads: 2, DModel: 16, FF: 32, Vocab: 29, MaxSeq: 8}
	enc, err := torch.NewTransformerEncoder(dev, rand.New(rand.NewSource(7)), cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := torch.NewTransformerTrainer(dev, enc, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 3; step++ {
		ids := make([]int32, 8)
		for j := range ids {
			ids[j] = int32((step*17 + j*3 + 1) % cfg.Vocab)
		}
		if _, err := tr.TrainStep(ids); err != nil {
			t.Fatalf("train step %d: %v", step, err)
		}
	}
	return nil
}

// barrierWork runs kernels that synchronise their warps with bar.sync:
// a row softmax and a tiled GEMM.
func barrierWork(t *testing.T, dev *torch.Device, _ *Engine, _ bool) []cudart.KernelStats {
	const rows, cols = 48, 96
	px := stallSynth(t, dev.Ctx, rows*cols, 2)
	py, err := dev.Ctx.Malloc(4 * rows * cols)
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.H.SoftmaxForward(px, py, rows, cols); err != nil {
		t.Fatal(err)
	}
	const m, n, k = 64, 48, 80
	pa := stallSynth(t, dev.Ctx, m*k, 0.5)
	pb := stallSynth(t, dev.Ctx, k*n, 0.25)
	pc, err := dev.Ctx.Malloc(4 * m * n)
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.H.Gemm(pa, pb, pc, m, n, k, 1, 0); err != nil {
		t.Fatal(err)
	}
	return nil
}

// stallResumePTX sums each block's 128 inputs through shared memory,
// with a bar.sync between the store and the reduction.
const stallResumePTX = `
.version 6.0
.target sm_61
.address_size 64

.visible .entry blocksum(
	.param .u64 pX,
	.param .u64 pY
)
{
	.reg .pred %p<2>;
	.reg .f32 %f<4>;
	.reg .b32 %r<8>;
	.reg .b64 %rd<8>;
	.shared .align 4 .b8 buf[512];

	ld.param.u64 %rd1, [pX];
	ld.param.u64 %rd2, [pY];
	cvta.to.global.u64 %rd1, %rd1;
	cvta.to.global.u64 %rd2, %rd2;
	mov.u32 %r1, %ctaid.x;
	mov.u32 %r2, %tid.x;
	shl.b32 %r3, %r1, 7;
	add.s32 %r3, %r3, %r2;
	mul.wide.u32 %rd3, %r3, 4;
	add.s64 %rd4, %rd1, %rd3;
	ld.global.f32 %f1, [%rd4];
	mov.u32 %r4, buf;
	shl.b32 %r5, %r2, 2;
	add.s32 %r6, %r4, %r5;
	st.shared.f32 [%r6], %f1;
	bar.sync 0;
	setp.ne.u32 %p1, %r2, 0;
	@%p1 bra DONE;
	mov.f32 %f2, 0f00000000;
	mov.u32 %r7, 0;
LOOP:
	ld.shared.f32 %f3, [%r4];
	add.f32 %f2, %f2, %f3;
	add.s32 %r4, %r4, 4;
	add.s32 %r7, %r7, 1;
	setp.lt.u32 %p1, %r7, 128;
	@%p1 bra LOOP;
	mul.wide.u32 %rd5, %r1, 4;
	add.s64 %rd6, %rd2, %rd5;
	st.global.f32 [%rd6], %f2;
DONE:
	ret;
}
`

// stallResume resumes a six-block launch from a checkpoint-like state:
// blocks 0 and 1 already retired, blocks 2-4 restored mid-flight, block
// 5 not yet started.
func stallResume(t *testing.T, dev *torch.Device, eng *Engine, legacy bool) []cudart.KernelStats {
	ctx := dev.Ctx
	if _, err := ctx.RegisterModule(stallResumePTX); err != nil {
		t.Fatal(err)
	}
	_, kern, err := ctx.LookupKernel("blocksum")
	if err != nil {
		t.Fatal(err)
	}
	const blocks = 6
	px := stallSynth(t, ctx, 128*blocks, 1)
	py, err := ctx.Malloc(4 * blocks)
	if err != nil {
		t.Fatal(err)
	}
	p := cudart.NewParams().Ptr(px).Ptr(py)
	g, err := ctx.M.NewGrid(kern, exec.Dim3{X: blocks}, exec.Dim3{X: 128}, p.Bytes(), 0)
	if err != nil {
		t.Fatal(err)
	}
	// Restored blocks: the first waits at the barrier with two of its
	// four warps, the second with all of them (the barrier releases when
	// it is placed), the third has finished (it retires when placed).
	var preload []*exec.CTA
	for i, atBarrier := range []int{2, 4} {
		cta := g.InitCTA(2 + i)
		for _, w := range cta.Warps[:atBarrier] {
			if _, err := ctx.M.RunWarp(cta, w, -1); err != nil {
				t.Fatal(err)
			}
			if !w.AtBarrier {
				t.Fatal("restored warp did not stop at the barrier")
			}
		}
		preload = append(preload, cta)
	}
	done := g.InitCTA(4)
	if err := ctx.M.RunCTA(done); err != nil {
		t.Fatal(err)
	}
	preload = append(preload, done)
	tk, err := eng.submit(g, 0, 2, preload)
	if err != nil {
		t.Fatal(err)
	}
	if legacy {
		err = eng.drainLegacyForTest(0)
	} else {
		err = eng.drain(0)
	}
	if err != nil {
		t.Fatal(err)
	}
	st, err := tk.Stats()
	if err != nil {
		t.Fatal(err)
	}
	return []cudart.KernelStats{st}
}

// stallFaultPTX loads one input per thread, then the second warp of
// block 3 stores out of shared-memory bounds and faults the launch.
const stallFaultPTX = `
.version 6.0
.target sm_61
.address_size 64

.visible .entry fault(
	.param .u64 pX
)
{
	.reg .pred %p<2>;
	.reg .f32 %f<3>;
	.reg .b32 %r<4>;
	.reg .b64 %rd<4>;

	ld.param.u64 %rd1, [pX];
	cvta.to.global.u64 %rd1, %rd1;
	mov.u32 %r1, %ctaid.x;
	mov.u32 %r2, %tid.x;
	mul.wide.u32 %rd2, %r2, 4;
	add.s64 %rd3, %rd1, %rd2;
	ld.global.f32 %f1, [%rd3];
	add.f32 %f2, %f1, %f1;
	setp.ne.u32 %p1, %r1, 3;
	@%p1 bra DONE;
	setp.ne.u32 %p1, %r2, 32;
	@%p1 bra DONE;
	mov.u32 %r3, 0;
	st.shared.f32 [%r3+4096], %f2;
DONE:
	ret;
}
`

// stallFault aborts a launch on a fault while other warps stall, then
// runs the bar.sync kernels on the recovered engine.
func stallFault(t *testing.T, dev *torch.Device, eng *Engine, legacy bool) []cudart.KernelStats {
	ctx := dev.Ctx
	if _, err := ctx.RegisterModule(stallFaultPTX); err != nil {
		t.Fatal(err)
	}
	px := stallSynth(t, ctx, 128, 1)
	if _, err := ctx.Launch("fault", exec.Dim3{X: 8}, exec.Dim3{X: 128}, cudart.NewParams().Ptr(px), 0); err == nil {
		t.Fatal("expected the faulting kernel to error")
	}
	return barrierWork(t, dev, eng, legacy)
}

// TestIssueStageStallIdentity runs library workloads through the
// event-driven issue stage and through the reference loop with the
// full-scan issue stage, at one and four workers: three training steps
// on the GTX 1050 (as the benchmark's train workload), the FFT and
// Winograd-nonfused forward convolutions of the conv sweep on the GTX
// 1080 Ti, bar.sync kernels, a checkpoint resume, and a launch that
// faults mid-run followed by one that does not. Cycles, the kernel
// stats, the whole engine Stats (every AerialVision series,
// IdleSlotCycles, FastForwardedCycles) and device memory must be
// identical: sleeping schedulers change host time only. One worker runs
// on one goroutine, so a -race build checks four workers only.
func TestIssueStageStallIdentity(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		work func(*testing.T, *torch.Device, *Engine, bool) []cudart.KernelStats
	}{
		{"train", GTX1050(), stallTrain},
		{"conv_fwd_fft", GTX1080Ti(), stallConvForward(cudnn.FwdAlgoFFT)},
		{"conv_fwd_winograd_nonfused", GTX1080Ti(), stallConvForward(cudnn.FwdAlgoWinogradNonfused)},
		{"barrier", GTX1080Ti(), barrierWork},
		{"resume", GTX1080Ti(), stallResume},
		{"fault", GTX1080Ti(), stallFault},
	}
	workerCounts := []int{1, 4}
	if raceEnabled {
		workerCounts = []int{4}
	}
	for _, tc := range cases {
		for _, workers := range workerCounts {
			t.Run(fmt.Sprintf("%s/j%d", tc.name, workers), func(t *testing.T) {
				got := runStallCase(t, tc.cfg, tc.work, workers, false)
				ref := runStallCase(t, tc.cfg, tc.work, workers, true)
				if got.Cycles == 0 || len(got.Log) == 0 {
					t.Fatal("workload did not run through the timing engine")
				}
				if got.Cycles != ref.Cycles {
					t.Errorf("cycles: event-driven %d, full scan %d", got.Cycles, ref.Cycles)
				}
				if !reflect.DeepEqual(got.Log, ref.Log) {
					t.Errorf("kernel stats diverged:\nevent-driven: %+v\nfull scan:    %+v", got.Log, ref.Log)
				}
				if !reflect.DeepEqual(got.Stats, ref.Stats) {
					t.Errorf("engine stats diverged: IdleSlotCycles %d vs %d, FastForwardedCycles %d vs %d, stalls %v vs %v",
						got.Stats.IdleSlotCycles, ref.Stats.IdleSlotCycles,
						got.Stats.FastForwardedCycles, ref.Stats.FastForwardedCycles,
						got.Stats.stalls, ref.Stats.stalls)
				}
				if !reflect.DeepEqual(got.Mem, ref.Mem) {
					t.Error("device memory diverged")
				}
			})
		}
	}
}
