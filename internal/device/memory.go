// Package device models the GPU device-side state that is independent of
// any particular kernel: the global memory image and allocator, the
// address-space windows used for generic addressing, and the texture
// machinery (texture names, texture references, cudaArrays) with the
// remapping semantics the paper's §III-C fixes introduced.
package device

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync"
)

// Address-space windows for generic addressing. A generic 64-bit address
// is classified by these windows, mirroring how GPGPU-Sim carves up its
// simulated address space.
const (
	SharedWindowBase = 0x0000_0000_0100_0000
	SharedWindowSize = 0x0000_0000_0100_0000 // 16 MiB
	LocalWindowBase  = 0x0000_0000_0200_0000
	LocalWindowSize  = 0x0000_0000_0100_0000 // 16 MiB
	GlobalBase       = 0x0000_0001_0000_0000
)

// InSharedWindow reports whether a generic address falls in the shared window.
func InSharedWindow(addr uint64) bool {
	return addr >= SharedWindowBase && addr < SharedWindowBase+SharedWindowSize
}

// InLocalWindow reports whether a generic address falls in the local window.
func InLocalWindow(addr uint64) bool {
	return addr >= LocalWindowBase && addr < LocalWindowBase+LocalWindowSize
}

const pageBits = 12
const pageSize = 1 << pageBits

// PageSize is the granularity of the memory image's page directory.
const PageSize = pageSize

// Memory is a sparse, page-backed global memory image.
//
// The page *directory* (the map from page number to backing slice) is
// guarded by a lock so concurrent warps — the parallel timing engine steps
// SM cores on multiple goroutines — can fault in pages safely. The page
// *contents* are intentionally unguarded: simulated threads of a data-
// race-free kernel touch disjoint bytes, and racy kernels are racy on
// real hardware too. Cross-CTA atomics are serialised by the timing
// engine itself (deferred-atomic drain), not here.
type Memory struct {
	mu    sync.RWMutex
	pages map[uint64][]byte
}

// NewMemory returns an empty global memory image.
func NewMemory() *Memory {
	return &Memory{pages: make(map[uint64][]byte)}
}

// page returns the backing slice for a page number. With create, a missing
// page is faulted in under the write lock; the double-checked lookup keeps
// the common resident-page path on the read lock only.
func (m *Memory) page(pn uint64, create bool) []byte {
	m.mu.RLock()
	p := m.pages[pn]
	m.mu.RUnlock()
	if p != nil || !create {
		return p
	}
	m.mu.Lock()
	p = m.pages[pn]
	if p == nil {
		p = make([]byte, pageSize)
		m.pages[pn] = p
	}
	m.mu.Unlock()
	return p
}

// Page returns the backing bytes of page pn (the address divided by
// PageSize), faulting it in when create is set; without create a page
// never written reads as nil. Page contents are unguarded, exactly as
// for Read and Write. The returned slice is the live page only until the
// next Restore, which replaces every page: callers may keep it for the
// duration of one operation, never across launches.
func (m *Memory) Page(pn uint64, create bool) []byte { return m.page(pn, create) }

// Read copies len(buf) bytes starting at addr into buf. Unwritten memory
// reads as zero.
func (m *Memory) Read(addr uint64, buf []byte) {
	for len(buf) > 0 {
		pn := addr >> pageBits
		off := int(addr & (pageSize - 1))
		n := pageSize - off
		if n > len(buf) {
			n = len(buf)
		}
		if p := m.page(pn, false); p != nil {
			copy(buf[:n], p[off:off+n])
		} else {
			for i := 0; i < n; i++ {
				buf[i] = 0
			}
		}
		buf = buf[n:]
		addr += uint64(n)
	}
}

// Write copies buf into memory starting at addr.
func (m *Memory) Write(addr uint64, buf []byte) {
	for len(buf) > 0 {
		pn := addr >> pageBits
		off := int(addr & (pageSize - 1))
		n := pageSize - off
		if n > len(buf) {
			n = len(buf)
		}
		copy(m.page(pn, true)[off:off+n], buf[:n])
		buf = buf[n:]
		addr += uint64(n)
	}
}

// Load reads size (1/2/4/8) bytes at addr as little-endian raw bits.
func (m *Memory) Load(addr uint64, size int) uint64 {
	var b [8]byte
	m.Read(addr, b[:size])
	return binary.LittleEndian.Uint64(b[:])
}

// Store writes the low size bytes of bits at addr.
func (m *Memory) Store(addr uint64, bits uint64, size int) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], bits)
	m.Write(addr, b[:size])
}

// Snapshot serialises all touched pages (paper §III-F "Data2": global
// memory per kernel). Pages are emitted in sorted order for determinism.
type Snapshot struct {
	PageNums []uint64
	Pages    [][]byte
}

// Snapshot captures the current memory image.
func (m *Memory) Snapshot() *Snapshot {
	m.mu.RLock()
	defer m.mu.RUnlock()
	s := &Snapshot{}
	for pn := range m.pages {
		s.PageNums = append(s.PageNums, pn)
	}
	sort.Slice(s.PageNums, func(i, j int) bool { return s.PageNums[i] < s.PageNums[j] })
	for _, pn := range s.PageNums {
		p := make([]byte, pageSize)
		copy(p, m.pages[pn])
		s.Pages = append(s.Pages, p)
	}
	return s
}

// Restore replaces the memory image with the snapshot contents.
func (m *Memory) Restore(s *Snapshot) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.pages = make(map[uint64][]byte, len(s.PageNums))
	for i, pn := range s.PageNums {
		p := make([]byte, pageSize)
		copy(p, s.Pages[i])
		m.pages[pn] = p
	}
}

// TouchedBytes returns the number of resident bytes (page granularity).
func (m *Memory) TouchedBytes() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.pages) * pageSize
}

// Allocator is a simple first-fit device memory allocator handing out
// addresses above GlobalBase.
type Allocator struct {
	next  uint64
	sizes map[uint64]uint64
	free  []span // sorted free list
}

type span struct{ base, size uint64 }

// NewAllocator returns an allocator starting at GlobalBase.
func NewAllocator() *Allocator {
	return &Allocator{next: GlobalBase, sizes: make(map[uint64]uint64)}
}

const allocAlign = 256 // cudaMalloc guarantees 256-byte alignment

// Alloc reserves size bytes and returns the device address.
func (a *Allocator) Alloc(size uint64) (uint64, error) {
	if size == 0 {
		return 0, fmt.Errorf("device: zero-byte allocation")
	}
	size = (size + allocAlign - 1) &^ uint64(allocAlign-1)
	for i, s := range a.free {
		if s.size >= size {
			addr := s.base
			if s.size == size {
				a.free = append(a.free[:i], a.free[i+1:]...)
			} else {
				a.free[i] = span{s.base + size, s.size - size}
			}
			a.sizes[addr] = size
			return addr, nil
		}
	}
	addr := a.next
	a.next += size
	a.sizes[addr] = size
	return addr, nil
}

// Free releases an allocation. Freeing an unknown address is an error,
// mirroring cudaErrorInvalidDevicePointer.
func (a *Allocator) Free(addr uint64) error {
	size, ok := a.sizes[addr]
	if !ok {
		return fmt.Errorf("device: free of unallocated address %#x", addr)
	}
	delete(a.sizes, addr)
	i := sort.Search(len(a.free), func(i int) bool { return a.free[i].base >= addr })
	a.free = append(a.free, span{})
	copy(a.free[i+1:], a.free[i:])
	a.free[i] = span{addr, size}
	// coalesce neighbours
	if i+1 < len(a.free) && a.free[i].base+a.free[i].size == a.free[i+1].base {
		a.free[i].size += a.free[i+1].size
		a.free = append(a.free[:i+1], a.free[i+2:]...)
	}
	if i > 0 && a.free[i-1].base+a.free[i-1].size == a.free[i].base {
		a.free[i-1].size += a.free[i].size
		a.free = append(a.free[:i], a.free[i+1:]...)
	}
	return nil
}

// SizeOf returns the size of a live allocation containing addr, together
// with its base address. The debug tool uses this to discover candidate
// output buffers from kernel pointer arguments (paper §III-D: "we modified
// GPGPU-Sim to obtain the size of any GPU memory buffers pointed to by
// these pointers").
func (a *Allocator) SizeOf(addr uint64) (base, size uint64, ok bool) {
	for b, s := range a.sizes {
		if addr >= b && addr < b+s {
			return b, s, true
		}
	}
	return 0, 0, false
}

// LiveAllocations returns the bases of all live allocations, sorted.
func (a *Allocator) LiveAllocations() []uint64 {
	out := make([]uint64, 0, len(a.sizes))
	for b := range a.sizes {
		out = append(out, b)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
