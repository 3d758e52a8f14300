package timing

import (
	"math/rand"
	"slices"
	"testing"
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
