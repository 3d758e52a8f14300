package exec_test

// Differential test of the pre-decoded interpreter against the
// lane-by-lane reference (reference_test.go). A cudart Runner executes
// every launch of real library workloads twice, in lockstep: the decoded
// interpreter on the context's machine, the reference on a second machine
// over a copy of device memory. Registers and memory are compared up to
// NaN payloads (exec.NaNEqual: which operand's NaN a float operation
// propagates is up to the compiler). After every warp instruction the two must
// agree on the error, the StepInfo, the warp's SIMT state and the
// registers the instruction writes; whenever a warp stops (barrier or
// retirement), on its whole register file and on local and shared memory;
// and after every grid, on global memory and the coverage counts. The
// workloads cover every internal/kernels module at several shapes, under
// every BugSet variant.

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/cudart"
	"repro/internal/cudnn"
	"repro/internal/device"
	"repro/internal/exec"
	"repro/internal/kernels"
	"repro/internal/ptx"
	"repro/internal/torch"
)

// diffRunner is a functional cudart.Runner that checks the decoded
// interpreter against the reference on every launch.
type diffRunner struct {
	t        *testing.T
	launched map[string]int // kernel name -> launches checked
	steps    int            // warp instructions checked
}

func (r *diffRunner) RunKernel(g *exec.Grid) (cudart.KernelStats, error) {
	r.t.Helper()
	mA := g.Machine()
	memB := device.NewMemory()
	memB.Restore(mA.Mem.Snapshot())
	mB := exec.NewMachine(exec.Config{Bugs: mA.Bugs()}, memB, mA.Tex)
	gB, err := mB.NewGrid(g.Kernel, g.GridDim, g.BlockDim, g.Params, g.SharedDyn)
	if err != nil {
		r.t.Fatalf("reference grid: %v", err)
	}
	covA, covB := exec.NewCoverage(), exec.NewCoverage()
	var runErr error
	for i := 0; i < g.NumCTAs() && runErr == nil; i++ {
		runErr = r.runCTA(mA, mB, g.InitCTA(i), gB.InitCTA(i), covA, covB)
	}
	where := fmt.Sprintf("kernel %s (bugs %+v)", g.Kernel.Name, mA.Bugs())
	if a, b := mA.Mem.Snapshot(), memB.Snapshot(); !slices.Equal(a.PageNums, b.PageNums) {
		r.t.Fatalf("%s: resident global pages differ after the grid", where)
	} else {
		for i := range a.Pages {
			if !exec.NaNEqualBytes(a.Pages[i], b.Pages[i]) {
				r.t.Fatalf("%s: global memory page %#x differs after the grid", where, a.PageNums[i])
			}
		}
	}
	for _, k := range covB.Keys() {
		if covA.Count(k) != covB.Count(k) {
			r.t.Fatalf("%s: coverage of %v.%v: decoded %d, reference %d", where, k.Op, k.T, covA.Count(k), covB.Count(k))
		}
	}
	if !slices.Equal(covA.Keys(), covB.Keys()) || covA.Total() != covB.Total() {
		r.t.Fatalf("%s: coverage keys differ: decoded %v, reference %v", where, covA.Keys(), covB.Keys())
	}
	mA.Coverage().Merge(covA)
	r.launched[g.Kernel.Name]++
	if runErr != nil {
		return cudart.KernelStats{}, runErr
	}
	return cudart.KernelStats{
		Name: g.Kernel.Name, WarpInstrs: covA.Total(),
	}, nil
}

// runCTA runs one CTA through both interpreters with RunCTA's warp
// interleaving, comparing after every instruction.
func (r *diffRunner) runCTA(mA, mB *exec.Machine, cA, cB *exec.CTA, covA, covB *exec.Coverage) error {
	where := func(w *exec.Warp) string {
		return fmt.Sprintf("kernel %s (bugs %+v) cta %d warp %d", cA.Grid.Kernel.Name, mA.Bugs(), cA.Index, w.ID)
	}
	for {
		progressed := false
		for wi, wA := range cA.Warps {
			wB := cB.Warps[wi]
			for !wA.Done && !wA.AtBarrier {
				var info exec.StepInfo
				errA := mA.StepWarpCov(cA, wA, covA, &info)
				ref, errB := mB.RefStepWarp(cB, wB, covB)
				r.steps++
				if (errA != nil || errB != nil) && fmt.Sprint(errA) != fmt.Sprint(errB) {
					r.t.Fatalf("%s: error: decoded %v, reference %v", where(wA), errA, errB)
				}
				if errA != nil {
					return errA
				}
				r.compareStep(func() string { return where(wA) }, &info, &ref)
				var written []int // the step's destinations; all slots at run end
				if info.Inst != nil {
					written = info.Inst.DstSlots
				}
				r.compareWarp(func() string { return where(wA) }, wA, wB, written)
				progressed = true
			}
			r.compareWarp(func() string { return where(wA) }, wA, wB, nil)
			if !exec.NaNEqualBytes(cA.Shared, cB.Shared) {
				r.t.Fatalf("%s: shared memory differs", where(wA))
			}
		}
		live, waiting := 0, 0
		for _, w := range cA.Warps {
			if !w.Done {
				live++
				if w.AtBarrier {
					waiting++
				}
			}
		}
		if live == 0 {
			return nil
		}
		if waiting == live {
			cA.ReleaseBarrier()
			cB.ReleaseBarrier()
			continue
		}
		if !progressed {
			return fmt.Errorf("kernel %s deadlocked", cA.Grid.Kernel.Name)
		}
	}
}

func (r *diffRunner) compareStep(where func() string, a *exec.StepInfo, b *exec.RefStepInfo) {
	var instr *ptx.Instr
	if a.Inst != nil {
		instr = a.Inst.Instr
	}
	got := exec.RefStepInfo{
		PC: a.PC, Instr: instr, ActiveMask: a.ActiveMask, IsMem: a.IsMem, IsStore: a.IsStore,
		IsAtomic: a.IsAtomic, Space: a.Space, AccSize: a.AccSize, Addrs: a.Addrs,
		Barrier: a.Barrier, WarpDone: a.WarpDone,
	}
	if got != *b {
		r.t.Fatalf("%s: StepInfo differs at %q:\ndecoded   %+v\nreference %+v", where(), instr, got, *b)
	}
}

// compareWarp compares the warp's SIMT state and the register slots in
// slots, or every slot and the local memory when slots is nil.
func (r *diffRunner) compareWarp(where func() string, a, b *exec.Warp, slots []int) {
	switch {
	case !slices.Equal(a.Stack, b.Stack):
		r.t.Fatalf("%s: SIMT stack differs: %v vs %v", where(), a.Stack, b.Stack)
	case a.Done != b.Done || a.AtBarrier != b.AtBarrier || a.InstrCount != b.InstrCount:
		r.t.Fatalf("%s: warp state differs", where())
	}
	check := func(slot int) {
		for l := 0; l < exec.WarpSize; l++ {
			if x, y := a.Reg(slot, l), b.Reg(slot, l); !exec.NaNEqual(x, y) {
				r.t.Fatalf("%s: register slot %d lane %d: decoded %#x, reference %#x", where(), slot, l, x, y)
			}
		}
	}
	if slots != nil {
		for _, slot := range slots {
			check(slot)
		}
		return
	}
	for slot := 0; slot < len(a.Regs)/exec.WarpSize; slot++ {
		check(slot)
	}
	for l := range a.Locals {
		if !exec.NaNEqualBytes(a.Locals[l], b.Locals[l]) {
			r.t.Fatalf("%s: local memory of lane %d differs", where(), l)
		}
	}
}

// diffBugSets are the BugSet variants every workload runs under.
var diffBugSets = []struct {
	name string
	bugs exec.BugSet
}{
	{"none", exec.BugSet{}},
	{"RemU64", exec.BugSet{RemU64: true}},
	{"BFESigned", exec.BugSet{BFESigned: true}},
	{"BreakFma", exec.BugSet{BreakOp: ptx.OpFma}},
}

func TestDifferentialInterpreter(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the kernel corpus through two interpreters")
	}
	workloads := []struct {
		name string
		run  func(dev *torch.Device, rng *rand.Rand) error
	}{
		{"conv_c2_12x12_k3_5x5", func(d *torch.Device, rng *rand.Rand) error {
			return convSweep(d, rng, cudnn.TensorDesc{N: 1, C: 2, H: 12, W: 12}, cudnn.FilterDesc{K: 3, C: 2, R: 5, S: 5}, cudnn.ConvDesc{Stride: 1})
		}},
		{"conv_n2_c2_6x6_k2_3x3_pad1", func(d *torch.Device, rng *rand.Rand) error {
			return convSweep(d, rng, cudnn.TensorDesc{N: 2, C: 2, H: 6, W: 6}, cudnn.FilterDesc{K: 2, C: 2, R: 3, S: 3}, cudnn.ConvDesc{Pad: 1, Stride: 1})
		}},
		{"lrn_pool_softmax_gemm", func(d *torch.Device, rng *rand.Rand) error {
			return layerSweep(d, rng, cudnn.TensorDesc{N: 2, C: 5, H: 6, W: 6})
		}},
		{"lrn_pool_softmax_gemm_wide", func(d *torch.Device, rng *rand.Rand) error {
			return layerSweep(d, rng, cudnn.TensorDesc{N: 1, C: 7, H: 10, W: 10})
		}},
		{"half_convert", halfConvert},
		{"transformer_train", func(d *torch.Device, rng *rand.Rand) error {
			return transformerTrain(d, rng, torch.TransformerConfig{Layers: 1, Heads: 2, DModel: 16, FF: 32, Vocab: 19, MaxSeq: 8}, 5)
		}},
		{"transformer_train_4head", func(d *torch.Device, rng *rand.Rand) error {
			return transformerTrain(d, rng, torch.TransformerConfig{Layers: 1, Heads: 4, DModel: 32, FF: 64, Vocab: 23, MaxSeq: 8}, 3)
		}},
		{"decode", func(d *torch.Device, rng *rand.Rand) error {
			dec, err := torch.NewTransformerDecoder(d, rng, torch.TransformerConfig{Layers: 1, Heads: 2, DModel: 16, FF: 32, Vocab: 17, MaxSeq: 8})
			if err != nil {
				return err
			}
			_, err = dec.Generate([]int32{3, 1, 4}, 3)
			return err
		}},
	}
	exercised := map[string]int{} // bug-free launches per kernel
	ran := 0                      // bug-free workloads run
	for _, bs := range diffBugSets {
		bugs := bs.bugs
		if raceEnabled && bugs != (exec.BugSet{}) {
			continue
		}
		for _, wl := range workloads {
			t.Run(wl.name+"/"+bs.name, func(t *testing.T) {
				dev, err := torch.NewDevice(bugs)
				if err != nil {
					t.Fatal(err)
				}
				r := &diffRunner{t: t, launched: map[string]int{}}
				dev.Ctx.SetRunner(r)
				err = wl.run(dev, rand.New(rand.NewSource(7)))
				// Injected bugs may make a workload fail (both interpreters
				// failed identically, or the runner would have stopped the
				// test); the correct simulator must not.
				if err != nil && bugs == (exec.BugSet{}) {
					t.Fatalf("workload failed: %v", err)
				}
				if len(r.launched) == 0 {
					t.Fatalf("no launches checked")
				}
				if bugs == (exec.BugSet{}) {
					ran++
					for k, n := range r.launched {
						exercised[k] += n
					}
				}
				t.Logf("%d launches of %d kernels, %d warp instructions checked", sum(r.launched), len(r.launched), r.steps)
			})
		}
	}
	if t.Failed() || ran < len(workloads) {
		return // a failure, or -run selected a subset
	}
	for i, src := range kernels.AllModules() {
		mod, err := ptx.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		hit := false
		for _, name := range mod.KernelNames() {
			hit = hit || exercised[name] > 0
		}
		if !hit {
			t.Errorf("module %d (%v): no kernel launched", i, mod.KernelNames())
		}
	}
}

func sum(m map[string]int) int {
	n := 0
	for _, v := range m {
		n += v
	}
	return n
}

func uploadRand(ctx *cudart.Context, rng *rand.Rand, n int) (uint64, error) {
	p, err := ctx.Malloc(uint64(4 * n))
	if err != nil {
		return 0, err
	}
	v := make([]float32, n)
	for i := range v {
		v[i] = rng.Float32()*2 - 1
	}
	ctx.MemcpyF32HtoD(p, v)
	return p, nil
}

// convSweep runs every forward, backward-data and backward-filter
// algorithm at one shape; algorithms that reject the shape are skipped.
func convSweep(dev *torch.Device, rng *rand.Rand, xd cudnn.TensorDesc, fd cudnn.FilterDesc, cd cudnn.ConvDesc) error {
	ctx, h := dev.Ctx, dev.H
	oh := (xd.H+2*cd.Pad-fd.R)/cd.Stride + 1
	ow := (xd.W+2*cd.Pad-fd.S)/cd.Stride + 1
	yd := cudnn.TensorDesc{N: xd.N, C: fd.K, H: oh, W: ow}
	px, err := uploadRand(ctx, rng, xd.Count())
	if err != nil {
		return err
	}
	pw, err := uploadRand(ctx, rng, fd.Count())
	if err != nil {
		return err
	}
	pdy, err := uploadRand(ctx, rng, yd.Count())
	if err != nil {
		return err
	}
	out, err := ctx.Malloc(uint64(4 * max(xd.Count(), yd.Count(), fd.Count())))
	if err != nil {
		return err
	}
	var errs []error
	for a := cudnn.FwdAlgoImplicitGemm; a <= cudnn.FwdAlgoWinogradNonfused; a++ {
		_, err := h.ConvolutionForward(a, px, xd, pw, fd, cd, out)
		errs = append(errs, err)
	}
	for a := cudnn.BwdDataAlgo0; a <= cudnn.BwdDataWinogradNonfused; a++ {
		errs = append(errs, h.ConvolutionBackwardData(a, pw, fd, pdy, yd, cd, out, xd))
	}
	for a := cudnn.BwdFilterAlgo0; a <= cudnn.BwdFilterWinogradNonfused; a++ {
		errs = append(errs, h.ConvolutionBackwardFilter(a, px, xd, pdy, yd, cd, out, fd))
	}
	// Shape rejections happen before any launch; only the last error
	// matters for the bug-free run, where none may occur at a launch.
	for _, err := range errs {
		if err != nil && isLaunchError(err) {
			return err
		}
	}
	return nil
}

// isLaunchError tells kernel failures from cudnn's shape rejections.
func isLaunchError(err error) bool { return bytes.Contains([]byte(err.Error()), []byte("exec:")) }

// layerSweep runs the non-convolution layers: LRN (textures), pooling,
// softmax, activations, bias, GEMM and GEMV.
func layerSweep(dev *torch.Device, rng *rand.Rand, xd cudnn.TensorDesc) error {
	ctx, h := dev.Ctx, dev.H
	n := xd.Count()
	px, err := uploadRand(ctx, rng, n)
	if err != nil {
		return err
	}
	py, err := uploadRand(ctx, rng, n)
	if err != nil {
		return err
	}
	pdy, err := uploadRand(ctx, rng, n)
	if err != nil {
		return err
	}
	pdx, err := uploadRand(ctx, rng, n)
	if err != nil {
		return err
	}
	ld := cudnn.LRNDesc{N: 5, K: 2, Alpha: 1e-4, Beta: 0.75}
	if err := h.LRNCrossChannelForward(ld, px, xd, py); err != nil {
		return err
	}
	if err := h.LRNCrossChannelBackward(ld, px, py, pdy, pdx, xd); err != nil {
		return err
	}
	if err := h.ActivationForward(px, py, n); err != nil {
		return err
	}
	if err := h.ActivationBackward(pdy, px, pdx, n); err != nil {
		return err
	}
	bias, err := uploadRand(ctx, rng, xd.C)
	if err != nil {
		return err
	}
	if err := h.AddTensor(bias, py, xd); err != nil {
		return err
	}
	idx, err := ctx.Malloc(uint64(4 * n))
	if err != nil {
		return err
	}
	yd, err := h.PoolingForward(cudnn.PoolDesc{Window: 2, Stride: 2}, px, xd, py, idx)
	if err != nil {
		return err
	}
	if err := h.PoolingBackward(pdy, idx, pdx, yd, n); err != nil {
		return err
	}
	rows, cols := xd.N*xd.C, xd.H*xd.W
	if err := h.SoftmaxForward(px, py, rows, cols); err != nil {
		return err
	}
	labels, err := dev.UploadLabels(make([]int32, rows))
	if err != nil {
		return err
	}
	if err := h.SoftmaxNLLBackward(py, labels, pdx, rows, cols); err != nil {
		return err
	}
	if err := h.GemvT(px, pdy, py, rows, cols, 1.5, 0.5); err != nil {
		return err
	}
	return h.Gemm(px, pdy, py, rows, rows, cols, 1, 0)
}

// halfConvert launches the FP16 conversion kernels, which no library
// call uses, directly.
func halfConvert(dev *torch.Device, rng *rand.Rand) error {
	ctx := dev.Ctx
	const n = 300
	px, err := uploadRand(ctx, rng, n)
	if err != nil {
		return err
	}
	ph, err := ctx.Malloc(2 * n)
	if err != nil {
		return err
	}
	py, err := ctx.Malloc(4 * n)
	if err != nil {
		return err
	}
	grid, block := exec.Dim3{X: (n + 127) / 128}, exec.Dim3{X: 128}
	if _, err := ctx.Launch("convert_f32_to_f16", grid, block, cudart.NewParams().Ptr(px).Ptr(ph).U32(n), 0); err != nil {
		return err
	}
	_, err = ctx.Launch("convert_f16_to_f32", grid, block, cudart.NewParams().Ptr(ph).Ptr(py).U32(n), 0)
	return err
}

func transformerTrain(dev *torch.Device, rng *rand.Rand, cfg torch.TransformerConfig, seq int) error {
	model, err := torch.NewTransformerEncoder(dev, rng, cfg)
	if err != nil {
		return err
	}
	tr, err := torch.NewTransformerTrainer(dev, model, 0.05)
	if err != nil {
		return err
	}
	ids := make([]int32, seq)
	for i := range ids {
		ids[i] = int32(rng.Intn(cfg.Vocab))
	}
	_, err = tr.TrainStep(ids)
	return err
}
