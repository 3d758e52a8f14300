package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"

	"repro/internal/cudnn"
	"repro/internal/ref"
	"repro/internal/serve"
	"repro/internal/timing"
	"repro/internal/torch"
)

// workload is one benchmark workload: run executes a single pass of it
// for the seed. It returns an error only when set-up fails; a failed op
// is counted on the pass and the pass goes on.
type workload struct {
	name string
	run  func(p *pass, seed int64, sz size) error
}

var workloads = map[string]workload{
	"train":        {"train", runTrain},
	"infer_replay": {"infer_replay", runInferReplay},
	"paper_conv":   {"paper_conv", runPaperConv},
	"serve_decode": {"serve_decode", runServeDecode},
}

func workloadNames() string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	slices.Sort(names)
	return strings.Join(names, ", ")
}

// The transformer workloads share the repository's sample encoder shape:
// 2 layers, 4 heads, d_model 32.
var transformerCfg = serve.DefaultModel()

const (
	trainSeqLen = 8
	trainLR     = 0.05
	// trainLossTol is the permitted |device − CPU mirror| per-step loss
	// divergence (float32 kernels against float64-reduction host math).
	trainLossTol = 5e-2

	inferSeqs   = 4
	inferSeqLen = 12
	inferTol    = 1e-4 // |ForwardBatch − ForwardCPU| on the detailed iteration

	serveRate    = 4.0 // offered load, requests per million modelled cycles
	servePrefill = 4
	serveDecode  = 6
)

// errOracle marks an op whose output failed its oracle check.
var errOracle = errors.New("oracle mismatch")

func randomIDs(rng *rand.Rand, n, vocab int) []int32 {
	ids := make([]int32, n)
	for i := range ids {
		ids[i] = int32(rng.Intn(vocab))
	}
	return ids
}

func randomF32(rng *rand.Rand, n int) []float32 {
	v := make([]float32, n)
	for i := range v {
		v[i] = rng.Float32() - 0.5
	}
	return v
}

// runTrain runs detailed transformer training steps (replay off); each
// step's loss is checked against the torch.CPUTrainState host mirror.
func runTrain(p *pass, seed int64, sz size) error {
	rng := rand.New(rand.NewSource(seed))
	r, err := p.newRig(timing.GTX1050())
	if err != nil {
		return err
	}
	defer r.eng.Close()
	var trainer *torch.TransformerTrainer
	var model *torch.TransformerEncoder
	if err := p.buildModel(func() error {
		var err error
		if model, err = torch.NewTransformerEncoder(r.dev, rng, transformerCfg); err != nil {
			return err
		}
		trainer, err = torch.NewTransformerTrainer(r.dev, model, trainLR)
		return err
	}); err != nil {
		return fmt.Errorf("train model: %w", err)
	}
	if p.setupOnly {
		return nil
	}
	oracle := torch.NewCPUTrainState(model)
	keep := liveSet(r.dev)

	for step := 0; step < sz.trainSteps; step++ {
		ids := randomIDs(rng, trainSeqLen, transformerCfg.Vocab)
		var loss float32
		err := p.measured("torch", func() error {
			var err error
			loss, err = trainer.TrainStep(ids)
			return err
		})
		if err == nil {
			err = freeTransients(r.dev, keep)
		}
		if err != nil {
			p.check(fmt.Sprintf("train step %d", step), err)
			p.abort(sz.trainSteps - step - 1)
			break
		}
		want := oracle.TrainStep(ids, trainLR)
		if d := math.Abs(float64(loss - want)); !(d <= trainLossTol) {
			err = fmt.Errorf("%w: device loss %g, CPU mirror %g", errOracle, loss, want)
		}
		p.check(fmt.Sprintf("train step %d", step), err)
		p.hashF32([]float32{loss})
	}
	p.collectRig(r)
	return nil
}

// runInferReplay repeats one stream-overlapped encoder batch with hybrid
// replay on. The first (detailed) iteration is checked against
// ForwardCPU; every later one must be bit-equal to it.
func runInferReplay(p *pass, seed int64, sz size) error {
	rng := rand.New(rand.NewSource(seed))
	cfg := timing.GTX1050()
	cfg.ReplayEnabled = true
	r, err := p.newRig(cfg)
	if err != nil {
		return err
	}
	defer r.eng.Close()
	var enc *torch.TransformerEncoder
	if err := p.buildModel(func() error {
		var err error
		enc, err = torch.NewTransformerEncoder(r.dev, rng, transformerCfg)
		return err
	}); err != nil {
		return fmt.Errorf("infer model: %w", err)
	}
	if p.setupOnly {
		return nil
	}
	batch := make([][]int32, inferSeqs)
	for i := range batch {
		batch[i] = randomIDs(rng, inferSeqLen, transformerCfg.Vocab)
	}
	keep := liveSet(r.dev)

	var first [][]float32
	for it := 0; it < sz.inferIters; it++ {
		var outs [][]float32
		err := p.measured("torch", func() error {
			var err error
			outs, err = enc.ForwardBatch(batch, true)
			return err
		})
		if err == nil {
			err = freeTransients(r.dev, keep)
		}
		if err != nil {
			p.check(fmt.Sprintf("infer iteration %d", it), err)
			p.abort(sz.inferIters - it - 1)
			break
		}
		if it == 0 {
			first = outs
			for i, ids := range batch {
				want, _ := enc.ForwardCPU(ids)
				if err == nil {
					err = closeTo(outs[i], want, inferTol)
				}
				p.hashF32(outs[i])
			}
		} else {
			for i := range outs {
				if err == nil && !slices.Equal(outs[i], first[i]) {
					err = fmt.Errorf("%w: sequence %d differs from the first iteration", errOracle, i)
				}
			}
		}
		p.check(fmt.Sprintf("infer iteration %d", it), err)
	}
	p.collectRig(r)
	return nil
}

// convShape sizes the paper_conv sweep.
type convShape struct{ N, C, H, W, K, R, Pad int }

// defaultConv is the repository's conv_sample shape: 3x3 stride 1, small
// enough that plain FFT applies.
var defaultConv = convShape{N: 1, C: 8, H: 28, W: 28, K: 8, R: 3, Pad: 1}

// convCase is one (direction, algorithm) case of the paper's §V sweep.
type convCase struct {
	dir  string
	algo int
	name string
	tol  float64 // max |got − ref| relative to max |ref|
}

func convCases() []convCase {
	var cs []convCase
	for a := cudnn.FwdAlgoImplicitGemm; a <= cudnn.FwdAlgoWinogradNonfused; a++ {
		cs = append(cs, convCase{"fwd", int(a), a.String(), convTol(a.String())})
	}
	for a := cudnn.BwdDataAlgo0; a <= cudnn.BwdDataWinogradNonfused; a++ {
		cs = append(cs, convCase{"bwddata", int(a), a.String(), convTol(a.String())})
	}
	for a := cudnn.BwdFilterAlgo0; a <= cudnn.BwdFilterWinogradNonfused; a++ {
		cs = append(cs, convCase{"bwdfilter", int(a), a.String(), convTol(a.String())})
	}
	return cs
}

// convTol is looser for the transform-domain algorithms, whose float32
// rounding differs from direct summation.
func convTol(algo string) float64 {
	if strings.Contains(algo, "fft") || strings.Contains(algo, "winograd") {
		return 1e-3
	}
	return 1e-5
}

// runPaperConv runs all 17 (direction, algorithm) cases on the GTX 1080
// Ti model, each on a fresh engine so its caches start empty, and checks
// each result against the ref package's direct convolution.
func runPaperConv(p *pass, seed int64, sz size) error {
	rng := rand.New(rand.NewSource(seed))
	s := sz.conv
	xs := ref.TensorShape4{N: s.N, C: s.C, H: s.H, W: s.W}
	cp := ref.ConvParams{Stride: 1, Pad: s.Pad}
	ys := ref.TensorShape4{N: s.N, C: s.K, H: cp.ConvOut(s.H, s.R), W: cp.ConvOut(s.W, s.R)}
	xd := cudnn.TensorDesc{N: xs.N, C: xs.C, H: xs.H, W: xs.W}
	yd := cudnn.TensorDesc{N: ys.N, C: ys.C, H: ys.H, W: ys.W}
	fd := cudnn.FilterDesc{K: s.K, C: s.C, R: s.R, S: s.R}
	cd := cudnn.ConvDesc{Pad: s.Pad, Stride: 1}
	wn := fd.Count()

	for _, c := range convCases() {
		x := randomF32(rng, xs.Count())
		w := randomF32(rng, wn)
		dy := randomF32(rng, ys.Count())
		r, err := p.newRig(timing.GTX1080Ti())
		if err != nil {
			return err
		}
		var px, pw, pdy, pout uint64
		if err := p.buildModel(func() error {
			var err error
			if px, err = upload(r, x); err != nil {
				return err
			}
			if pw, err = upload(r, w); err != nil {
				return err
			}
			if pdy, err = upload(r, dy); err != nil {
				return err
			}
			pout, err = r.dev.Ctx.Malloc(uint64(4 * max(xs.Count(), ys.Count(), wn)))
			return err
		}); err != nil {
			r.eng.Close()
			return fmt.Errorf("conv tensors: %w", err)
		}
		if p.setupOnly {
			r.eng.Close()
			continue
		}

		var want []float32
		err = p.measured("cudnn", func() error {
			h := r.dev.H
			switch c.dir {
			case "fwd":
				_, err := h.ConvolutionForward(cudnn.ConvFwdAlgo(c.algo), px, xd, pw, fd, cd, pout)
				return err
			case "bwddata":
				return h.ConvolutionBackwardData(cudnn.ConvBwdDataAlgo(c.algo), pw, fd, pdy, yd, cd, pout, xd)
			default:
				return h.ConvolutionBackwardFilter(cudnn.ConvBwdFilterAlgo(c.algo), px, xd, pdy, yd, cd, pout, fd)
			}
		})
		if err == nil {
			switch c.dir {
			case "fwd":
				want, _ = ref.Conv2DForward(x, xs, w, s.K, s.R, cp)
			case "bwddata":
				want = ref.Conv2DBackwardData(dy, ys, w, s.C, s.R, xs, cp)
			default:
				want = ref.Conv2DBackwardFilter(x, xs, dy, ys, s.R, cp)
			}
			got := r.dev.Ctx.MemcpyF32DtoH(pout, len(want))
			err = closeTo(got, want, c.tol)
			p.hashF32(got)
		}
		p.check(fmt.Sprintf("conv %s/%s", c.dir, c.name), err)
		p.collectRig(r)
		r.eng.Close()
	}
	return nil
}

func upload(r *rig, v []float32) (uint64, error) {
	ptr, err := r.dev.Ctx.Malloc(uint64(4 * len(v)))
	if err != nil {
		return 0, err
	}
	r.dev.Ctx.MemcpyF32HtoD(ptr, v)
	return ptr, nil
}

// closeTo checks max |got − want| against tol × max(1, max |want|).
func closeTo(got, want []float32, tol float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%w: %d values, want %d", errOracle, len(got), len(want))
	}
	var diff, scale float64 = 0, 1
	for i := range want {
		scale = max(scale, math.Abs(float64(want[i])))
		diff = max(diff, math.Abs(float64(got[i]-want[i])))
	}
	if !(diff <= tol*scale) { // a NaN fails too
		return fmt.Errorf("%w: max abs diff %g exceeds %g", errOracle, diff, tol*scale)
	}
	return nil
}

// servePrompt is the prompt serve.Run feeds request id (its request-id
// token rule), rebuilt here for the oracle.
func servePrompt(id, n, vocab int) []int32 {
	ids := make([]int32, n)
	for j := range ids {
		ids[j] = int32((id*13 + j*5) % vocab)
	}
	return ids
}

// serveArrivals is an open-loop stream of n decode requests at serveRate:
// request i arrives uniformly at random in the first quarter of its slot
// [i·T, (i+1)·T), T = 1/serveRate. Poisson arrivals of this few requests
// move the modelled busy cycles by ±20% from seed to seed; jittered slots
// keep the offered load and the seeded arrival times, and the cycles
// steady (a half-slot jitter moved them more with 6 requests). Request ids pick the prompts; a seeded permutation varies which
// prompt arrives when.
func serveArrivals(rng *rand.Rand, n int) serve.Trace {
	slot := 1e6 / serveRate
	ids := rng.Perm(n)
	tr := serve.Trace{Requests: make([]serve.Request, n)}
	for i := range tr.Requests {
		tr.Requests[i] = serve.Request{
			ID:      ids[i],
			Arrival: uint64((float64(i) + rng.Float64()/4) * slot),
			SeqLen:  servePrefill,
			Steps:   serveDecode,
		}
	}
	return tr.WithDecode(servePrefill, serveDecode)
}

// runServeDecode serves a seeded open-loop stream of KV-cached decode
// requests with replay on. serve.Run builds its own device,
// engine and model inside the measured region; the pass's set-up builds
// the same stack (device, engine, decoder with the same weights) as the
// oracle model, so setup_s covers the same work. Each request's tokens
// are checked against TransformerDecoder.GenerateCPU.
func runServeDecode(p *pass, seed int64, sz size) error {
	rng := rand.New(rand.NewSource(seed))
	modelSeed := 2*seed + 1 // odd, so never serve's "0 = default" value
	r, err := p.newRig(timing.GTX1050())
	if err != nil {
		return err
	}
	r.eng.Close() // built only to time the set-up serve.Run repeats
	var dec *torch.TransformerDecoder
	if err := p.buildModel(func() error {
		var err error
		dec, err = torch.NewTransformerDecoder(r.dev, rand.New(rand.NewSource(modelSeed)), transformerCfg)
		return err
	}); err != nil {
		return fmt.Errorf("serve oracle model: %w", err)
	}
	if p.setupOnly {
		return nil
	}

	trace := serveArrivals(rng, sz.serveRequests)
	var res *serve.Result
	err = p.measured("serve", func() error {
		var err error
		res, err = serve.Run(serve.Config{
			Model: transformerCfg, Workers: engineWorkers, ModelSeed: modelSeed,
			Replay: true, KeepOutputs: true,
		}, trace)
		return err
	})
	if err != nil {
		p.check("serve run", err)
		p.abort(len(trace.Requests) - 1)
		return nil
	}
	for _, q := range trace.Requests {
		want, err := dec.GenerateCPU(servePrompt(q.ID, servePrefill, transformerCfg.Vocab), serveDecode)
		if err == nil && !slices.Equal(res.Tokens[q.ID], want) {
			err = fmt.Errorf("%w: tokens %v, want %v", errOracle, res.Tokens[q.ID], want)
		}
		p.check(fmt.Sprintf("serve request %d", q.ID), err)
		p.hashI32(res.Tokens[q.ID])
	}
	p.sim.launches += uint64(len(res.Log))
	p.serve = res
	p.hashU64(res.TotalCycles, uint64(res.Iterations), uint64(res.PeakBatch), uint64(res.PeakKVBytes))
	for _, q := range res.Requests {
		p.hashU64(uint64(q.ID), q.Admitted, q.FirstToken, q.Completed)
	}
	p.collect(timing.GTX1050(), res.BusyCycles, &res.Stats, res.Log)
	return nil
}
