// Package exec implements GPGPU-Sim-style functional simulation of PTX
// kernels: warps of 32 threads executing in lockstep under SIMT
// reconvergence stacks, with barriers, predication, all memory spaces,
// textures and atomics. The timing model (internal/timing) drives the same
// machine one warp-instruction at a time; the functional mode used for
// fast-forwarding (paper §III-F) runs warps to completion directly.
package exec

import (
	"fmt"
	"sync"

	"repro/internal/device"
	"repro/internal/ptx"
)

// WarpSize is the number of threads per warp.
const WarpSize = 32

// Dim3 is a CUDA dim3.
type Dim3 struct{ X, Y, Z int }

// Count returns X*Y*Z (with zero components treated as 1).
func (d Dim3) Count() int {
	x, y, z := d.X, d.Y, d.Z
	if x == 0 {
		x = 1
	}
	if y == 0 {
		y = 1
	}
	if z == 0 {
		z = 1
	}
	return x * y * z
}

// Config configures a functional machine.
type Config struct {
	Bugs BugSet
}

// Machine executes PTX kernels against a device memory image.
type Machine struct {
	cfg Config
	Mem *device.Memory
	Tex *device.TextureRegistry

	cov *Coverage
	rec *memRecorder // non-nil only inside CaptureGrid (memo.go)

	progMu sync.Mutex
	progs  map[*ptx.Kernel]*program // decoded kernels (decode.go)

	regs   bufPool[uint64] // released warp register files (ReleaseCTA)
	shared bufPool[byte]   // released shared memory
}

// Bounds on the bytes of released register files and shared memory a
// machine keeps for reuse.
const (
	regPoolBytes    = 1 << 20
	sharedPoolBytes = 256 << 10
)

// NewMachine creates a functional machine over the given memory image and
// texture registry (either may be shared with a runtime context).
func NewMachine(cfg Config, mem *device.Memory, tex *device.TextureRegistry) *Machine {
	return &Machine{
		cfg: cfg, Mem: mem, Tex: tex, cov: NewCoverage(), progs: map[*ptx.Kernel]*program{},
		regs:   bufPool[uint64]{limit: regPoolBytes / 8},
		shared: bufPool[byte]{limit: sharedPoolBytes},
	}
}

// Coverage returns the machine's instruction-implementation coverage
// counters (see coverage.go; used for differential coverage analysis).
func (m *Machine) Coverage() *Coverage { return m.cov }

// Bugs returns the configured bug injections.
func (m *Machine) Bugs() BugSet { return m.cfg.Bugs }

// Grid is one kernel launch: grid/block geometry plus launch state.
type Grid struct {
	Kernel    *ptx.Kernel
	GridDim   Dim3
	BlockDim  Dim3
	Params    []byte
	SharedDyn int // dynamic shared memory bytes (third launch parameter)

	machine *Machine
	prog    *program // the kernel decoded by machine
}

// NewGrid prepares a launch. The parameter buffer must match the kernel's
// parameter layout (see cudart for the marshalling helpers). Every launch
// goes through here, so this is where a kernel is decoded, once per
// machine, on its first launch (decode.go).
func (m *Machine) NewGrid(k *ptx.Kernel, gridDim, blockDim Dim3, params []byte, sharedDyn int) (*Grid, error) {
	if k == nil {
		return nil, fmt.Errorf("exec: nil kernel")
	}
	if blockDim.Count() == 0 || blockDim.Count() > 1024 {
		return nil, fmt.Errorf("exec: bad block size %d", blockDim.Count())
	}
	if len(params) < k.ParamBytes() {
		return nil, fmt.Errorf("exec: kernel %s needs %d parameter bytes, got %d",
			k.Name, k.ParamBytes(), len(params))
	}
	return &Grid{
		Kernel: k, GridDim: gridDim, BlockDim: blockDim,
		Params: params, SharedDyn: sharedDyn, machine: m, prog: m.program(k),
	}, nil
}

// NumCTAs returns the number of thread blocks in the grid.
func (g *Grid) NumCTAs() int { return g.GridDim.Count() }

// NumWarpsPerCTA returns warps per block.
func (g *Grid) NumWarpsPerCTA() int {
	return (g.BlockDim.Count() + WarpSize - 1) / WarpSize
}

// SharedBytes returns the total shared memory per CTA (static + dynamic).
func (g *Grid) SharedBytes() int { return g.Kernel.SharedBytes + g.SharedDyn }

// Machine returns the machine this grid executes on.
func (g *Grid) Machine() *Machine { return g.machine }

// StackEntry is one SIMT reconvergence stack entry.
type StackEntry struct {
	PC   int
	RPC  int // reconvergence PC; -1 for the bottom entry
	Mask uint32
}

// Warp is 32 threads executing in lockstep.
type Warp struct {
	ID    int
	Stack []StackEntry
	// Regs holds raw register bits, laid out slot-major:
	// Regs[slot*WarpSize+lane].
	Regs   []uint64
	Locals [][]byte // per-lane local memory; nil when kernel uses none
	// InitMask has a bit per lane that exists in the thread block.
	InitMask   uint32
	AtBarrier  bool
	Done       bool
	InstrCount uint64
}

// CTA is one thread block in flight.
type CTA struct {
	Grid   *Grid
	Index  int // linear block index
	Shared []byte
	Warps  []*Warp
}

// InitCTA builds the architectural state for block index i (registers
// zeroed, SIMT stacks at PC 0). This corresponds to GPGPU-Sim's CTA issue.
func (g *Grid) InitCTA(i int) *CTA {
	k := g.Kernel
	nThreads := g.BlockDim.Count()
	nWarps := g.NumWarpsPerCTA()
	cta := &CTA{Grid: g, Index: i, Shared: g.machine.shared.get(g.SharedBytes())}
	for w := 0; w < nWarps; w++ {
		warp := &Warp{
			ID:    w,
			Stack: make([]StackEntry, 1, 4),
			Regs:  g.machine.regs.get(k.NumSlots * WarpSize),
		}
		var mask uint32
		for l := 0; l < WarpSize; l++ {
			if w*WarpSize+l < nThreads {
				mask |= 1 << l
			}
		}
		warp.InitMask = mask
		warp.Stack[0] = StackEntry{PC: 0, RPC: -1, Mask: mask}
		if k.LocalBytes > 0 {
			warp.Locals = make([][]byte, WarpSize)
			for l := 0; l < WarpSize; l++ {
				if mask&(1<<l) != 0 {
					warp.Locals[l] = make([]byte, k.LocalBytes)
				}
			}
		}
		cta.Warps = append(cta.Warps, warp)
	}
	return cta
}

// ReleaseCTA hands a retired CTA's register files and shared memory back
// to the machine, for a later InitCTA to reuse. The caller must hold no
// other reference to c's state: its warps lose their registers and c its
// shared memory.
func (g *Grid) ReleaseCTA(c *CTA) {
	for _, w := range c.Warps {
		if w.Regs != nil {
			g.machine.regs.put(w.Regs)
			w.Regs = nil
		}
	}
	if c.Shared != nil {
		g.machine.shared.put(c.Shared)
		c.Shared = nil
	}
}

// bufPool keeps released buffers for reuse, grouped by length, up to a
// bound on the elements it holds. A block's register files are most of
// what a launch allocates, and kernels relaunch with the same shapes, so
// reuse spares the allocator and the collector most of that churn; the
// bound keeps what a pool retains between launches small.
type bufPool[T uint64 | byte] struct {
	mu    sync.Mutex
	free  map[int][][]T
	held  int // elements held
	limit int // most elements held
}

// get returns a zeroed buffer of length n.
func (p *bufPool[T]) get(n int) []T {
	p.mu.Lock()
	if l := p.free[n]; len(l) > 0 {
		b := l[len(l)-1]
		p.free[n] = l[:len(l)-1]
		p.held -= n
		p.mu.Unlock()
		clear(b)
		return b
	}
	p.mu.Unlock()
	return make([]T, n)
}

// put offers b for reuse; past the bound it is left to the collector.
func (p *bufPool[T]) put(b []T) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.held+len(b) > p.limit {
		return
	}
	if p.free == nil {
		p.free = map[int][][]T{}
	}
	p.free[len(b)] = append(p.free[len(b)], b)
	p.held += len(b)
}

// Done reports whether every warp of the CTA has retired.
func (c *CTA) Done() bool {
	for _, w := range c.Warps {
		if !w.Done {
			return false
		}
	}
	return true
}

// Reg reads a register slot for one lane.
func (w *Warp) Reg(slot, lane int) uint64 { return w.Regs[slot*WarpSize+lane] }

// SetReg writes a register slot for one lane.
func (w *Warp) SetReg(slot, lane int, v uint64) { w.Regs[slot*WarpSize+lane] = v }

// row returns one register slot across all lanes.
func (w *Warp) row(slot int) *vec {
	return (*vec)(w.Regs[slot*WarpSize : (slot+1)*WarpSize])
}

// StepInfo describes one executed warp instruction; the timing model turns
// this into pipeline and memory-system events. StepWarpCov fills it in
// place and resets every field but Addrs: Addrs[l] is meaningful only for
// the lanes of ActiveMask of a memory instruction.
type StepInfo struct {
	PC         int
	Inst       *Inst // nil when the step retired the warp without executing
	ActiveMask uint32
	IsMem      bool
	IsStore    bool
	IsAtomic   bool
	Space      ptx.Space
	AccSize    int // bytes accessed per lane (vector width included)
	Addrs      [WarpSize]uint64
	Barrier    bool
	WarpDone   bool
}

func (s *StepInfo) reset() {
	s.PC, s.Inst, s.ActiveMask = 0, nil, 0
	s.IsMem, s.IsStore, s.IsAtomic = false, false, false
	s.Space, s.AccSize = ptx.SpaceNone, 0
	s.Barrier, s.WarpDone = false, false
}

// linearThread returns the linear thread id of (warp, lane).
func linearThread(w *Warp, lane int) int { return w.ID*WarpSize + lane }

func sregValue(c *CTA, w *Warp, lane int, s ptx.SReg) uint64 {
	g := c.Grid
	bx, by := g.BlockDim.X, g.BlockDim.Y
	if bx == 0 {
		bx = 1
	}
	if by == 0 {
		by = 1
	}
	lin := linearThread(w, lane)
	gx, gy := g.GridDim.X, g.GridDim.Y
	if gx == 0 {
		gx = 1
	}
	if gy == 0 {
		gy = 1
	}
	switch s {
	case ptx.SRegTidX:
		return uint64(lin % bx)
	case ptx.SRegTidY:
		return uint64((lin / bx) % by)
	case ptx.SRegTidZ:
		return uint64(lin / (bx * by))
	case ptx.SRegNtidX:
		return uint64(bx)
	case ptx.SRegNtidY:
		return uint64(by)
	case ptx.SRegNtidZ:
		z := g.BlockDim.Z
		if z == 0 {
			z = 1
		}
		return uint64(z)
	case ptx.SRegCtaidX:
		return uint64(c.Index % gx)
	case ptx.SRegCtaidY:
		return uint64((c.Index / gx) % gy)
	case ptx.SRegCtaidZ:
		return uint64(c.Index / (gx * gy))
	case ptx.SRegNctaidX:
		return uint64(gx)
	case ptx.SRegNctaidY:
		return uint64(gy)
	case ptx.SRegNctaidZ:
		z := g.GridDim.Z
		if z == 0 {
			z = 1
		}
		return uint64(z)
	case ptx.SRegLaneID:
		return uint64(lane)
	case ptx.SRegWarpID:
		return uint64(w.ID)
	case ptx.SRegClock:
		return w.InstrCount
	}
	return 0
}

// immValue converts an immediate operand to raw bits of type t. Float
// immediates are canonically stored as f64 bits by the parser.
func immValue(o *ptx.Operand, t ptx.Type) uint64 {
	if !o.FloatImm {
		return o.Imm
	}
	f := bitsF64(o.Imm)
	switch t {
	case ptx.F16:
		return uint64(F32ToHalf(float32(f)))
	case ptx.F32:
		return f32bits(float32(f))
	case ptx.F64:
		return o.Imm
	default:
		return uint64(int64(f))
	}
}

// classifySpace resolves the effective space of a generic address.
func classifySpace(space ptx.Space, addr uint64) ptx.Space {
	if space != ptx.SpaceGeneric && space != ptx.SpaceNone {
		return space
	}
	switch {
	case device.InSharedWindow(addr):
		return ptx.SpaceShared
	case device.InLocalWindow(addr):
		return ptx.SpaceLocal
	default:
		return ptx.SpaceGlobal
	}
}

// pageCacheSize bounds the distinct pages one instruction remembers; a
// warp's lanes rarely touch more than two.
const pageCacheSize = 8

// pageCache is one warp instruction's memo of the global pages it has
// touched, so the instruction takes the page directory's lock once per
// distinct page (up to pageCacheSize of them) rather than once per lane.
// It lives on the stack of one runLoad/runStore call and never outlives
// the instruction: Memory.Restore replaces the page directory between
// launches, and a cached page would then point at dead memory. A load's
// cache may hold a non-resident (nil) page; that is sound because a load
// instruction never creates pages. Atomics, whose lanes read pages that
// earlier lanes may just have created, pass no cache.
type pageCache struct {
	n     int
	pns   [pageCacheSize]uint64
	pages [pageCacheSize][]byte
}

// get returns the page holding [addr, addr+n) and addr's offset in it, or
// ok=false when the span crosses a page boundary or pc is nil.
func (pc *pageCache) get(mem *device.Memory, addr uint64, n int, create bool) (page []byte, off int, ok bool) {
	off = int(addr & (device.PageSize - 1))
	if pc == nil || off+n > device.PageSize {
		return nil, 0, false
	}
	pn := addr / device.PageSize
	for i := 0; i < pc.n; i++ {
		if pc.pns[i] == pn {
			return pc.pages[i], off, true
		}
	}
	page = mem.Page(pn, create)
	if pc.n < pageCacheSize {
		pc.pns[pc.n], pc.pages[pc.n] = pn, page
		pc.n++
	}
	return page, off, true
}

// loadView returns the len(buf) bytes at addr in space (already
// classified, see classifySpace): a view of the backing memory when the
// bytes are contiguous there, else buf filled with a copy. pc, when
// non-nil, caches global pages. The view is valid until the next store.
func (m *Machine) loadView(c *CTA, w *Warp, lane int, space ptx.Space, addr uint64, buf []byte, pc *pageCache) ([]byte, error) {
	n := len(buf)
	switch space {
	case ptx.SpaceShared:
		off := addr
		if device.InSharedWindow(addr) {
			off = addr - device.SharedWindowBase
		}
		if off > uint64(len(c.Shared)) || int(off)+n > len(c.Shared) {
			return nil, fmt.Errorf("exec: shared load out of bounds: off %d size %d (smem %d)", off, n, len(c.Shared))
		}
		return c.Shared[off : int(off)+n], nil
	case ptx.SpaceLocal:
		off := addr
		if device.InLocalWindow(addr) {
			off = addr - device.LocalWindowBase
		}
		lm := w.localMem(lane)
		if off > uint64(len(lm)) || int(off)+n > len(lm) {
			return nil, fmt.Errorf("exec: local load out of bounds: off %d size %d (lmem %d)", off, n, len(lm))
		}
		return lm[off : int(off)+n], nil
	case ptx.SpaceParam:
		p := c.Grid.Params
		if addr > uint64(len(p)) || int(addr)+n > len(p) {
			return nil, fmt.Errorf("exec: param load out of bounds: off %d size %d (params %d)", addr, n, len(p))
		}
		return p[addr : int(addr)+n], nil
	}
	// global, const
	view := buf
	if page, off, ok := pc.get(m.Mem, addr, n, false); ok && page != nil {
		view = page[off : off+n]
	} else if ok {
		clear(buf) // unwritten memory reads as zero
	} else {
		m.Mem.Read(addr, buf)
	}
	if m.rec != nil {
		m.rec.recordRead(addr, view)
	}
	return view, nil
}

// loadBytes copies the len(buf) bytes at addr in space into buf, without
// a page cache (atomics).
func (m *Machine) loadBytes(c *CTA, w *Warp, lane int, space ptx.Space, addr uint64, buf []byte) error {
	v, err := m.loadView(c, w, lane, space, addr, buf, nil)
	copy(buf, v)
	return err
}

// storeBytes writes buf at addr in space (already classified). pc, when
// non-nil, caches global pages.
func (m *Machine) storeBytes(c *CTA, w *Warp, lane int, space ptx.Space, addr uint64, buf []byte, pc *pageCache) error {
	switch space {
	case ptx.SpaceShared:
		off := addr
		if device.InSharedWindow(addr) {
			off = addr - device.SharedWindowBase
		}
		if off > uint64(len(c.Shared)) || int(off)+len(buf) > len(c.Shared) {
			return fmt.Errorf("exec: shared store out of bounds: off %d size %d (smem %d)", off, len(buf), len(c.Shared))
		}
		copy(c.Shared[off:], buf)
	case ptx.SpaceLocal:
		off := addr
		if device.InLocalWindow(addr) {
			off = addr - device.LocalWindowBase
		}
		lm := w.localMem(lane)
		if off > uint64(len(lm)) || int(off)+len(buf) > len(lm) {
			return fmt.Errorf("exec: local store out of bounds: off %d size %d (lmem %d)", off, len(buf), len(lm))
		}
		copy(lm[off:], buf)
	case ptx.SpaceParam:
		return fmt.Errorf("exec: store to parameter space")
	default:
		if m.rec != nil {
			m.rec.recordWrite(addr, buf)
		}
		if page, off, ok := pc.get(m.Mem, addr, len(buf), true); ok {
			copy(page[off:], buf)
		} else {
			m.Mem.Write(addr, buf)
		}
	}
	return nil
}

// localMem returns a lane's local memory (nil when the kernel has none).
func (w *Warp) localMem(lane int) []byte {
	if lane < len(w.Locals) {
		return w.Locals[lane]
	}
	return nil
}
