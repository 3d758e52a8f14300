package timing

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/exec"
)

// denseSeries is the dense representation series replaced: a slice grown
// to the last touched bucket.
type denseSeries []uint32

func (d *denseSeries) add(b, v uint64) {
	for uint64(len(*d)) <= b {
		*d = append(*d, 0)
	}
	(*d)[b] += uint32(v)
}

func (d *denseSeries) merge(src denseSeries, base uint64) {
	if len(src) == 0 {
		return
	}
	for uint64(len(*d)) < base+uint64(len(src)) {
		*d = append(*d, 0)
	}
	for i, v := range src {
		(*d)[base+uint64(i)] += v
	}
}

// TestSeriesMatchesDense: random adds (in and out of bucket order),
// shard merges at random bases and resets give the same length and the
// same per-bucket counts as the dense slice.
func TestSeriesMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		var acc series
		var accD denseSeries
		for round := 0; round < 5; round++ {
			var shard series
			var shardD denseSeries
			b := uint64(rng.Intn(50))
			for i := 0; i < rng.Intn(40); i++ {
				if rng.Intn(4) == 0 {
					b = uint64(rng.Intn(300)) // out of order, sometimes far
				} else {
					b += uint64(rng.Intn(3))
				}
				v := uint64(1 + rng.Intn(5))
				shard.add(b, v)
				shardD.add(b, v)
			}
			base := uint64(rng.Intn(200))
			acc.merge(&shard, base)
			accD.merge(shardD, base)
			shard.reset()
			if shard.n != 0 || len(shard.bucket) != 0 {
				t.Fatalf("reset left %d buckets", len(shard.bucket))
			}
		}
		if acc.n != uint64(len(accD)) {
			t.Fatalf("trial %d: length %d, dense %d", trial, acc.n, len(accD))
		}
		got := make([]float64, acc.n)
		acc.addTo(got, 1)
		want := make([]float64, len(accD))
		for i, v := range accD {
			want[i] = float64(v)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d: counts differ:\n%v\n%v", trial, got, want)
		}
		if !slices.IsSorted(acc.bucket) {
			t.Fatalf("trial %d: buckets out of order", trial)
		}
	}
}

// TestNoteIssueMatchesPerIssueAdds: noteIssue's per-bucket counters,
// flushed when the bucket changes and before a merge, leave the same
// series as adding every issue to the series directly. Stall runs
// charged by noteStalls match per-cycle charges the same way.
func TestNoteIssueMatchesPerIssueAdds(t *testing.T) {
	cfg := GTX1050()
	cfg.SampleInterval = 7
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		got, want := newStats(cfg), newStats(cfg)
		base := uint64(rng.Intn(40))
		got.rebase(base)
		want.rebase(base)
		core := rng.Intn(cfg.NumSMs)
		cycle := base
		info := &exec.StepInfo{}
		for i := 0; i < 300; i++ {
			cycle += uint64(rng.Intn(4))
			if rng.Intn(3) == 0 {
				k := stallKind(rng.Intn(int(numStallKinds)))
				end := cycle + uint64(rng.Intn(20))
				got.noteStalls(k, cycle, end)
				for c := cycle; c < end; c++ {
					if k == stallIdle {
						want.IdleSlotCycles++
					}
					want.stalls[k].add(c/want.interval-want.base, 1)
				}
				cycle = end
				continue
			}
			lanes := rng.Intn(33)
			got.noteIssue(core, cycle, info, lanes)
			want.Instructions++
			want.ThreadInstrs += uint64(lanes)
			b := cycle/want.interval - want.base
			want.coreIPC[core].add(b, 1)
			if lanes >= 1 {
				want.laneCount[lanes-1].add(b, 1)
			}
		}
		got.flushIssued()
		sum := newStats(cfg)
		sum.merge(got)
		wantSum := newStats(cfg)
		wantSum.merge(want)
		if !reflect.DeepEqual(sum, wantSum) {
			t.Fatalf("trial %d: merged stats differ:\n%+v\n%+v", trial, sum, wantSum)
		}
	}
}
