package serve

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/exec"
	"repro/internal/torch"
)

// testModel is the small encoder the serving tests run (one layer keeps
// the -race CI step fast); testTrace arrivals are scaled so the batch
// sees queueing without the run taking minutes.
func testModel() torch.TransformerConfig {
	return torch.TransformerConfig{
		Layers: 1, Heads: 2, DModel: 16, FF: 32, Vocab: 29, MaxSeq: 8,
	}
}

func testConfig() Config {
	return Config{Model: testModel()}
}

// mixedTrace is the determinism workhorse: a Poisson baseline with a
// bursty stream merged on top, so admission sees both steady queueing
// and on/off spikes.
func mixedTrace() Trace {
	return Merge(
		Poisson(11, 60, 10, 6, 2),
		Bursty(12, 500, 3, 60_000, 6, 4, 1),
	)
}

// checkInvariants asserts the admission-order contract on any result:
// every request admitted at or after arrival, first token at or after
// admission, completion at or after first token, Admitted non-decreasing
// in arrival order (a request is never overtaken by a later arrival),
// and the batch never exceeding its cap.
func checkInvariants(t *testing.T, res *Result) {
	t.Helper()
	if res.PeakBatch > res.BatchCap {
		t.Errorf("peak batch %d exceeds cap %d", res.PeakBatch, res.BatchCap)
	}
	if len(res.Requests) != len(res.Trace.Requests) {
		t.Fatalf("completed %d of %d requests", len(res.Requests), len(res.Trace.Requests))
	}
	byID := make(map[int]RequestStats, len(res.Requests))
	for _, q := range res.Requests {
		if q.Admitted < q.Arrival {
			t.Errorf("request %d admitted at %d before arrival %d", q.ID, q.Admitted, q.Arrival)
		}
		if q.FirstToken < q.Admitted {
			t.Errorf("request %d first token %d before admission %d", q.ID, q.FirstToken, q.Admitted)
		}
		if q.Completed < q.FirstToken {
			t.Errorf("request %d completed %d before first token %d", q.ID, q.Completed, q.FirstToken)
		}
		byID[q.ID] = q
	}
	var prevAdmit uint64
	for _, r := range res.Trace.Requests {
		q, ok := byID[r.ID]
		if !ok {
			t.Fatalf("request %d never completed", r.ID)
		}
		if q.Admitted < prevAdmit {
			t.Errorf("request %d admitted at %d, before an earlier arrival's admission at %d (admission out of arrival order)", r.ID, q.Admitted, prevAdmit)
		}
		prevAdmit = q.Admitted
	}
}

// TestServeSeededTraceReproducible: the same seeded trace and config run
// twice must produce byte-identical results — per-request stats, kernel
// log and engine Stats included.
func TestServeSeededTraceReproducible(t *testing.T) {
	tr := Poisson(21, 80, 8, 6, 2)
	a, err := Run(testConfig(), tr)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(testConfig(), tr)
	if err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, a)
	if !reflect.DeepEqual(a.Requests, b.Requests) {
		t.Errorf("per-request stats differ across identical runs:\n%+v\n%+v", a.Requests, b.Requests)
	}
	if a.TotalCycles != b.TotalCycles || a.BusyCycles != b.BusyCycles || a.Iterations != b.Iterations {
		t.Errorf("run shape differs: %d/%d/%d vs %d/%d/%d",
			a.TotalCycles, a.BusyCycles, a.Iterations, b.TotalCycles, b.BusyCycles, b.Iterations)
	}
	if !reflect.DeepEqual(a.Log, b.Log) {
		t.Error("kernel logs differ across identical runs")
	}
	if !reflect.DeepEqual(a.Stats, b.Stats) {
		t.Errorf("engine stats differ across identical runs:\n%+v\n%+v", a.Stats, b.Stats)
	}
	if a.Stats.PerKernel != nil {
		t.Errorf("Result retains %d per-kernel samples; Log carries them", len(a.Stats.PerKernel))
	}
}

// TestServeWorkerDeterminism: serving extends the engine's -j1 vs -jN
// byte-identity contract — a mixed Poisson+bursty trace with replay
// enabled must produce identical results (replay counters included) for
// 1 and 4 workers.
func TestServeWorkerDeterminism(t *testing.T) {
	tr := mixedTrace()
	run := func(workers int) *Result {
		t.Helper()
		cfg := testConfig()
		cfg.Workers = workers
		cfg.Replay = true
		res, err := Run(cfg, tr)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	j1 := run(1)
	j4 := run(4)
	checkInvariants(t, j1)
	if !reflect.DeepEqual(j1.Requests, j4.Requests) {
		t.Errorf("-j1 vs -j4 per-request stats differ:\n%+v\n%+v", j1.Requests, j4.Requests)
	}
	if j1.TotalCycles != j4.TotalCycles {
		t.Errorf("-j1 total %d cycles, -j4 %d", j1.TotalCycles, j4.TotalCycles)
	}
	if !reflect.DeepEqual(j1.Log, j4.Log) {
		t.Error("-j1 vs -j4 kernel logs differ")
	}
	if !reflect.DeepEqual(j1.Stats, j4.Stats) {
		t.Errorf("-j1 vs -j4 engine stats differ (replay counters included):\n%+v\n%+v", j1.Stats, j4.Stats)
	}
}

// TestServeReplayEquivalence: on a repeated-request trace, serving with
// replay must hit the memo cache and still finish with outputs
// bit-identical to detailed mode — replay memoizes timing, never
// semantics.
func TestServeReplayEquivalence(t *testing.T) {
	// Well-spaced identical requests: each one runs alone, so every chain
	// after the first has an identical composition and replays.
	tr := Trace{}
	for i := 0; i < 6; i++ {
		tr.Requests = append(tr.Requests, Request{
			ID: i, Arrival: uint64(i) * 2_000_000, SeqLen: 6, Steps: 2,
		})
	}
	run := func(replay bool) *Result {
		t.Helper()
		cfg := testConfig()
		cfg.Replay = replay
		cfg.KeepOutputs = true
		res, err := Run(cfg, tr)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	detailed := run(false)
	replayed := run(true)
	checkInvariants(t, replayed)
	if replayed.Stats.ReplayHits == 0 {
		t.Errorf("repeated-request trace produced no replay hits: %+v", replayed.Stats)
	}
	if len(detailed.Outputs) != len(replayed.Outputs) {
		t.Fatalf("output counts differ: %d vs %d", len(detailed.Outputs), len(replayed.Outputs))
	}
	for id := range detailed.Outputs {
		if !reflect.DeepEqual(detailed.Outputs[id], replayed.Outputs[id]) {
			t.Errorf("request %d output diverges between detailed and replay mode", id)
		}
	}
	if detailed.Stats.ReplayHits != 0 {
		t.Errorf("detailed mode recorded replay hits: %+v", detailed.Stats)
	}
}

// TestServeAdmissionCapQueues: offered load far above the cap must queue
// (admission later than arrival) rather than widen the batch.
func TestServeAdmissionCapQueues(t *testing.T) {
	cfg := testConfig()
	cfg.MaxBatch = 2
	// All 6 requests arrive at cycle 0; only 2 fit per iteration.
	tr := Trace{}
	for i := 0; i < 6; i++ {
		tr.Requests = append(tr.Requests, Request{ID: i, Arrival: 0, SeqLen: 6, Steps: 1})
	}
	res, err := Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, res)
	if res.PeakBatch != 2 {
		t.Errorf("peak batch %d, want 2 (the cap)", res.PeakBatch)
	}
	if res.Iterations != 3 {
		t.Errorf("iterations %d, want 3 (6 requests / cap 2)", res.Iterations)
	}
	var queued int
	for _, q := range res.Requests {
		if q.Admitted > q.Arrival {
			queued++
		}
	}
	if queued != 4 {
		t.Errorf("queued %d requests, want 4 (all but the first batch)", queued)
	}
}

// TestServeRejectsOversizedRequest: requests longer than the model's
// MaxSeq are a config error, not a truncation.
func TestServeRejectsOversizedRequest(t *testing.T) {
	tr := Trace{Requests: []Request{{ID: 0, Arrival: 0, SeqLen: 99, Steps: 1}}}
	if _, err := Run(testConfig(), tr); err == nil {
		t.Fatal("oversized request accepted")
	}
}

// TestAdmissionCapDerivation pins the occupancy-headroom arithmetic on
// the default GTX1050 + default model: 5 SMs x 32 warp slots = 160
// contexts; the widest per-sequence kernel is the 4-head attention GEMM
// at 4 heads x 1 tile^2 x 8 warps = 32 warps -> cap 5.
func TestAdmissionCapDerivation(t *testing.T) {
	res, err := Run(Config{}, Trace{Requests: []Request{{ID: 0, Arrival: 0, SeqLen: 8, Steps: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	if res.BatchCap != 5 {
		t.Errorf("default GTX1050 admission cap = %d, want 5", res.BatchCap)
	}
}

func TestLatencyOverTime(t *testing.T) {
	res := &Result{
		TotalCycles: 1000,
		Requests: []RequestStats{
			{ID: 0, Arrival: 0, Completed: 100},
			{ID: 1, Arrival: 0, Completed: 450},
			{ID: 2, Arrival: 400, Completed: 990},
		},
	}
	buckets := res.LatencyOverTime(2)
	if len(buckets) != 2 {
		t.Fatalf("buckets = %d, want 2", len(buckets))
	}
	if buckets[0].Completed != 2 || buckets[1].Completed != 1 {
		t.Fatalf("bucket counts = %d/%d, want 2/1", buckets[0].Completed, buckets[1].Completed)
	}
	if buckets[0].P50 != 100 || buckets[0].P99 != 450 {
		t.Errorf("bucket 0 percentiles = %v/%v, want 100/450", buckets[0].P50, buckets[0].P99)
	}
	if buckets[1].P50 != 590 {
		t.Errorf("bucket 1 p50 = %v, want 590", buckets[1].P50)
	}
}

// decodeTrace is the decode-mode determinism workhorse: queued Poisson
// arrivals, each prefilling 3 prompt tokens and decoding 3 more.
func decodeTrace() Trace {
	return Poisson(31, 60, 8, 0, 0).WithDecode(3, 3)
}

// TestServeDecodeMatchesOracle serves a decode trace and checks every
// request's generated tokens against the GenerateCPU oracle of an
// identically seeded model — continuous batching, KV admission and
// session reuse must never change what gets generated.
func TestServeDecodeMatchesOracle(t *testing.T) {
	cfg := testConfig()
	cfg.KeepOutputs = true
	res, err := Run(cfg, decodeTrace())
	if err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, res)
	if !res.Decode {
		t.Fatal("decode trace did not select decode mode")
	}
	if res.PeakKVBytes == 0 || res.PeakKVBytes > res.KVBudgetBytes {
		t.Fatalf("peak KV bytes %d outside (0, budget %d]", res.PeakKVBytes, res.KVBudgetBytes)
	}
	dev, err := torch.NewDevice(exec.BugSet{})
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := torch.NewTransformerDecoder(dev, rand.New(rand.NewSource(7)), testModel())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Trace.Requests {
		want, err := oracle.GenerateCPU(tokensFor(r.ID, r.Prefill, testModel().Vocab), r.Decode)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res.Tokens[r.ID], want) {
			t.Errorf("request %d tokens %v, oracle %v", r.ID, res.Tokens[r.ID], want)
		}
	}
}

// TestServeDecodeWorkerDeterminism extends the -j1 vs -jN byte-identity
// contract to decode serving with replay enabled: per-request stats,
// generated tokens, kernel log and engine Stats (replay counters
// included) must all match.
func TestServeDecodeWorkerDeterminism(t *testing.T) {
	tr := decodeTrace()
	run := func(workers int) *Result {
		t.Helper()
		cfg := testConfig()
		cfg.Workers = workers
		cfg.Replay = true
		cfg.KeepOutputs = true
		res, err := Run(cfg, tr)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	j1 := run(1)
	j4 := run(4)
	checkInvariants(t, j1)
	if !reflect.DeepEqual(j1.Requests, j4.Requests) {
		t.Errorf("-j1 vs -j4 per-request stats differ:\n%+v\n%+v", j1.Requests, j4.Requests)
	}
	if j1.TotalCycles != j4.TotalCycles {
		t.Errorf("-j1 total %d cycles, -j4 %d", j1.TotalCycles, j4.TotalCycles)
	}
	if !reflect.DeepEqual(j1.Tokens, j4.Tokens) {
		t.Errorf("-j1 vs -j4 generated tokens differ:\n%v\n%v", j1.Tokens, j4.Tokens)
	}
	if !reflect.DeepEqual(j1.Log, j4.Log) {
		t.Error("-j1 vs -j4 kernel logs differ")
	}
	if !reflect.DeepEqual(j1.Stats, j4.Stats) {
		t.Errorf("-j1 vs -j4 engine stats differ (replay counters included):\n%+v\n%+v", j1.Stats, j4.Stats)
	}
}

// TestServeDecodeKVBudgetQueues: a KV budget holding two sessions must
// bound the batch at two resident requests — later arrivals queue in
// order behind the budget, not the occupancy cap.
func TestServeDecodeKVBudgetQueues(t *testing.T) {
	model := testModel()
	kv := torch.KVCacheBytes(model)
	cfg := testConfig()
	cfg.KVBudgetBytes = 2 * kv
	tr := Trace{}
	for i := 0; i < 6; i++ {
		tr.Requests = append(tr.Requests, Request{
			ID: i, Arrival: 0, SeqLen: 3, Steps: 2, Prefill: 3, Decode: 2,
		})
	}
	res, err := Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, res)
	if res.PeakBatch != 2 {
		t.Errorf("peak batch %d, want 2 (the KV budget)", res.PeakBatch)
	}
	if res.PeakKVBytes != 2*kv {
		t.Errorf("peak KV bytes %d, want %d", res.PeakKVBytes, 2*kv)
	}
	var queued int
	for _, q := range res.Requests {
		if q.Admitted > q.Arrival {
			queued++
		}
	}
	if queued != 4 {
		t.Errorf("queued %d requests, want 4 (all but the first two)", queued)
	}
}

// TestServeDecodeRejects: decode requests that cannot fit the model's
// cache or the KV budget are config errors, not truncations.
func TestServeDecodeRejects(t *testing.T) {
	over := Trace{Requests: []Request{
		{ID: 0, Arrival: 0, SeqLen: 6, Steps: 4, Prefill: 6, Decode: 4},
	}}
	if _, err := Run(testConfig(), over); err == nil {
		t.Fatal("prefill+decode past MaxSeq accepted")
	}
	cfg := testConfig()
	cfg.KVBudgetBytes = torch.KVCacheBytes(testModel()) - 1
	tr := Trace{Requests: []Request{
		{ID: 0, Arrival: 0, SeqLen: 3, Steps: 2, Prefill: 3, Decode: 2},
	}}
	if _, err := Run(cfg, tr); err == nil {
		t.Fatal("KV budget smaller than one session accepted")
	}
}
