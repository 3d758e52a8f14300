package timing

import "sort"

// series is one AerialVision time series: a uint32 event count per sample
// bucket, stored sparsely as the ascending buckets with a nonzero count
// and their counts. Replayed launches retire without issuing, so most
// buckets of a serving run's series are zero, and every serve.Result
// keeps a copy of the series. n counts the buckets written or merged
// over, zero-valued ones included, exactly as a dense slice grown to the
// last touched bucket would.
type series struct {
	n      uint64
	bucket []uint64
	count  []uint32
}

// add adds v (nonzero) to bucket b. Adds in bucket order, which is how
// the issue stage records them, append or bump the last entry.
func (s *series) add(b, v uint64) {
	s.n = max(s.n, b+1)
	last := len(s.bucket) - 1
	switch {
	case last >= 0 && s.bucket[last] == b:
		s.count[last] += uint32(v)
	case last < 0 || s.bucket[last] < b:
		s.bucket = append(s.bucket, b)
		s.count = append(s.count, uint32(v))
	default:
		i := sort.Search(len(s.bucket), func(i int) bool { return s.bucket[i] >= b })
		if s.bucket[i] == b {
			s.count[i] += uint32(v)
			return
		}
		s.bucket = append(s.bucket[:i+1], s.bucket[i:]...)
		s.bucket[i] = b
		s.count = append(s.count[:i+1], s.count[i:]...)
		s.count[i] = uint32(v)
	}
}

// merge adds src, whose bucket 0 is bucket base of s, into s.
func (s *series) merge(src *series, base uint64) {
	if src.n == 0 {
		return
	}
	for i, b := range src.bucket {
		s.add(base+b, uint64(src.count[i]))
	}
	s.n = max(s.n, base+src.n)
}

// reset empties s, keeping its storage for reuse.
func (s *series) reset() {
	s.n, s.bucket, s.count = 0, s.bucket[:0], s.count[:0]
}

// addTo adds each bucket's count divided by div to out[bucket], for the
// buckets out covers.
func (s *series) addTo(out []float64, div float64) {
	for i, b := range s.bucket {
		if b < uint64(len(out)) {
			out[b] += float64(s.count[i]) / div
		}
	}
}
