package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"runtime/pprof"
	"testing"
	"time"
)

func TestBucketOf(t *testing.T) {
	for _, c := range []struct{ fn, file, want string }{
		{"repro/internal/exec.(*Machine).stepALU", "/src/internal/exec/alu.go", bucketExec},
		{"repro/internal/exec.(*GridMemo).Apply", "/src/internal/exec/memo.go", bucketReplay},
		{"repro/internal/timing.(*core).step", "/src/internal/timing/core.go", bucketTiming},
		{"repro/internal/timing.(*partition).tick", "/src/internal/timing/partition.go", bucketMem},
		{"repro/internal/dram.(*Channel).ServiceBatch", "/src/internal/dram/dram.go", bucketMem},
		{"repro/internal/cudart.(*Context).launch", "/src/internal/cudart/launch.go", bucketLaunch},
		{"runtime.mallocgc", "/go/src/runtime/malloc.go", bucketGo},
		{"crypto/sha256.block", "/go/src/crypto/sha256/sha256block.go", bucketOther},
	} {
		if got := bucketOf(c.fn, c.file); got != c.want {
			t.Errorf("bucketOf(%s) = %s, want %s", c.fn, got, c.want)
		}
	}
}

// TestParseProfile profiles a labelled busy loop next to an unlabelled
// one and checks that only the labelled samples are counted.
func TestParseProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	spin := func(d time.Duration) {
		b := make([]byte, 1<<16)
		for end := time.Now().Add(d); time.Now().Before(end); {
			sum := sha256.Sum256(b)
			b[0] = sum[0]
		}
	}
	pprof.SetGoroutineLabels(measuredLabels)
	spin(300 * time.Millisecond)
	pprof.SetGoroutineLabels(context.Background())
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()

	p, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if p.total <= 0 {
		t.Fatal("no measured samples")
	}
	if p.total > 0.5e9 {
		t.Errorf("measured %.0f ns of CPU, want at most the labelled 300ms", p.total)
	}
	if p.buckets[bucketOther] == 0 {
		t.Errorf("buckets %v: sha256 samples missing", p.buckets)
	}
	if p.engine != 0 {
		t.Errorf("engine samples %.0f ns, want 0", p.engine)
	}
}
