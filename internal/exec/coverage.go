package exec

import (
	"repro/internal/ptx"
)

// CovKey identifies one instruction-implementation path: opcode plus type
// specifier. The paper's "differential coverage analysis" (§III-D) compares
// which implementation paths a failing workload exercises that the passing
// regression suite does not; opcode+type granularity is exactly the level
// at which GPGPU-Sim's rem and bfe bugs hid (wrong only for some types).
type CovKey struct {
	Op ptx.Op
	T  ptx.Type
}

// numCovTypes is the number of type specifiers, TypeNone included.
const numCovTypes = int(ptx.Pred) + 1

// Coverage counts executed instructions per implementation path, in a
// dense [op][type] table indexed in CovKey order.
type Coverage struct {
	counts []uint64
}

// NewCoverage returns empty coverage.
func NewCoverage() *Coverage {
	return &Coverage{counts: make([]uint64, ptx.NumOps()*numCovTypes)}
}

// index returns k's slot in the table, or -1 for a key outside it.
func (c *Coverage) index(k CovKey) int {
	i := int(k.Op)*numCovTypes + int(k.T)
	if int(k.T) >= numCovTypes || i >= len(c.counts) {
		return -1
	}
	return i
}

// Note records one executed warp instruction.
func (c *Coverage) Note(in *ptx.Instr, mask uint32) {
	if i := c.index(CovKey{Op: in.Op, T: in.T}); i >= 0 {
		c.counts[i]++
	}
}

// Count returns the execution count of one path.
func (c *Coverage) Count(k CovKey) uint64 {
	if i := c.index(k); i >= 0 {
		return c.counts[i]
	}
	return 0
}

// Total returns the total executed warp-instruction count.
func (c *Coverage) Total() uint64 {
	var t uint64
	for _, v := range c.counts {
		t += v
	}
	return t
}

// Keys returns all exercised paths, deterministically ordered.
func (c *Coverage) Keys() []CovKey {
	var out []CovKey
	for i, v := range c.counts {
		if v != 0 {
			out = append(out, CovKey{Op: ptx.Op(i / numCovTypes), T: ptx.Type(i % numCovTypes)})
		}
	}
	return out
}

// Diff returns the paths exercised by c but not by base: the differential
// coverage the paper used to localise suspicious instruction
// implementations before falling back to instruction-level comparison.
func (c *Coverage) Diff(base *Coverage) []CovKey {
	var out []CovKey
	for _, k := range c.Keys() {
		if base.Count(k) == 0 {
			out = append(out, k)
		}
	}
	return out
}

// Merge adds other's counts into c.
func (c *Coverage) Merge(other *Coverage) {
	for i, v := range other.counts {
		c.counts[i] += v
	}
}

// Reset clears all counters.
func (c *Coverage) Reset() {
	clear(c.counts)
}
