package exec

import (
	"encoding/binary"
	"fmt"

	"repro/internal/ptx"
)

// StepWarp executes exactly one warp instruction (the instruction at the
// top of the warp's SIMT stack) and returns what happened. It is the
// convenience form of StepWarpCov for callers that step one warp at a
// time outside the timing model.
func (m *Machine) StepWarp(c *CTA, w *Warp) (StepInfo, error) {
	var info StepInfo
	err := m.StepWarpCov(c, w, m.cov, &info)
	return info, err
}

// StepWarpCov executes one warp instruction and fills info in place (see
// StepInfo for which fields it resets). It is the single execution entry
// point for both the fast functional mode and the cycle-level timing
// model, and it runs the grid's pre-decoded program (decode.go).
//
// cov is an explicit coverage sink. Concurrent callers stepping disjoint
// CTAs (the parallel timing engine) pass per-worker Coverage shards so the
// shared machine-level counters are never written from two goroutines;
// shards are merged back with Coverage.Merge at kernel boundaries. A nil
// cov disables coverage recording.
func (m *Machine) StepWarpCov(c *CTA, w *Warp, cov *Coverage, info *StepInfo) error {
	info.reset()
	if w.Done {
		return fmt.Errorf("exec: step of retired warp %d", w.ID)
	}
	if w.AtBarrier {
		return fmt.Errorf("exec: step of warp %d blocked at barrier", w.ID)
	}

	// Pop reconverged entries.
	for len(w.Stack) > 1 {
		top := &w.Stack[len(w.Stack)-1]
		if top.PC == top.RPC || top.Mask == 0 {
			w.Stack = w.Stack[:len(w.Stack)-1]
			continue
		}
		break
	}
	top := &w.Stack[len(w.Stack)-1]
	if top.Mask == 0 {
		w.Done = true
		info.WarpDone = true
		return nil
	}

	prog := c.Grid.prog
	if top.PC >= len(prog.insts) {
		// Fell off the end of the kernel: implicit ret for all lanes.
		m.retireLanes(w, top.Mask)
		info.WarpDone = w.Done
		return nil
	}

	d := &prog.insts[top.PC]
	in := d.Instr
	info.PC = top.PC
	info.Inst = d

	// Guard predicate: per-lane execution mask.
	execMask := top.Mask
	if in.PredReg >= 0 {
		p := w.row(in.PredReg)
		var pm uint32
		for l := range p {
			if p[l] != 0 {
				pm |= 1 << l
			}
		}
		if in.PredNeg {
			pm = ^pm
		}
		execMask &= pm
	}
	info.ActiveMask = execMask
	w.InstrCount++
	if cov != nil {
		cov.Note(in, execMask)
	}

	var err error
	switch in.Op {
	case ptx.OpBra:
		m.stepBranch(w, top, in, execMask)
		return nil

	case ptx.OpRet, ptx.OpExit:
		partial := execMask != top.Mask // before retireLanes clears the lanes
		m.retireLanes(w, execMask)
		if partial && !w.Done {
			nt := &w.Stack[len(w.Stack)-1]
			if nt.PC == in.PC { // surviving lanes continue past the guard
				nt.PC++
			}
		}
		info.WarpDone = w.Done
		return nil

	case ptx.OpBar:
		if len(w.Stack) != 1 {
			return fmt.Errorf("exec: kernel %s pc %d: bar.sync in divergent control flow", c.Grid.Kernel.Name, in.PC)
		}
		w.AtBarrier = true
		top.PC++
		info.Barrier = true
		return nil

	case ptx.OpMembar:
		top.PC++
		return nil

	case ptx.OpLd:
		err = m.runLoad(c, w, d, execMask, info)
	case ptx.OpSt:
		err = m.runStore(c, w, d, execMask, info)
	case ptx.OpAtom:
		err = m.runAtom(c, w, d, execMask, info)
	case ptx.OpTex:
		err = m.runTex(c, w, d, execMask, info)
	default:
		err = m.runALU(c, w, d, execMask)
	}
	if err != nil {
		return err
	}
	top.PC++
	return nil
}

// PeekWarp returns the instruction the warp will execute next, after
// popping any reconverged stack entries (idempotent bookkeeping). It
// returns nil when the warp has retired or will retire on its next step.
// The timing model uses this to consult the scoreboard before issue.
func (m *Machine) PeekWarp(c *CTA, w *Warp) *Inst {
	if w.Done {
		return nil
	}
	for len(w.Stack) > 1 {
		top := &w.Stack[len(w.Stack)-1]
		if top.PC == top.RPC || top.Mask == 0 {
			w.Stack = w.Stack[:len(w.Stack)-1]
			continue
		}
		break
	}
	top := &w.Stack[len(w.Stack)-1]
	if top.Mask == 0 {
		return nil
	}
	prog := c.Grid.prog
	if top.PC >= len(prog.insts) {
		return nil
	}
	return &prog.insts[top.PC]
}

// retireLanes removes lanes from every stack entry and pops empty entries.
func (m *Machine) retireLanes(w *Warp, mask uint32) {
	for i := range w.Stack {
		w.Stack[i].Mask &^= mask
	}
	for len(w.Stack) > 0 && w.Stack[len(w.Stack)-1].Mask == 0 {
		w.Stack = w.Stack[:len(w.Stack)-1]
	}
	if len(w.Stack) == 0 {
		w.Done = true
	}
}

// stepBranch implements SIMT-stack branch handling with reconvergence at
// the branch's immediate post-dominator (in.RPC).
func (m *Machine) stepBranch(w *Warp, top *StackEntry, in *ptx.Instr, takenMask uint32) {
	active := top.Mask
	notTaken := active &^ takenMask
	switch {
	case notTaken == 0: // uniform taken
		top.PC = in.Target
	case takenMask == 0: // uniform not taken
		top.PC++
	default: // divergence: current entry becomes the reconvergence entry
		rpc := in.RPC
		fall := in.PC + 1
		top.PC = rpc
		w.Stack = append(w.Stack,
			StackEntry{PC: fall, RPC: rpc, Mask: notTaken},
			StackEntry{PC: in.Target, RPC: rpc, Mask: takenMask},
		)
	}
}

// runALU computes a register-producing instruction for the whole warp.
// The bound function writes all 32 lanes in place; with a partial mask
// the inactive lanes' previous values are restored afterwards.
func (m *Machine) runALU(c *CTA, w *Warp, d *Inst, mask uint32) error {
	if d.err != nil {
		return d.err
	}
	if mask == 0 {
		return nil
	}
	if d.laneErr != nil {
		return d.laneErr
	}
	r := w.row(d.dst)
	if d.sreg {
		// special registers (mov %r, %tid.x and the like): lane by lane
		for l := range r {
			if mask&(1<<l) != 0 {
				var s [4]uint64
				for i := range s {
					s[i] = d.src[i].value(c, w, l)
				}
				r[l], _ = m.evalALU(d.Instr, s)
			}
		}
		return nil
	}
	a, b, cc, dd := d.src[0].row(w), d.src[1].row(w), d.src[2].row(w), d.src[3].row(w)
	if mask == fullMask {
		d.alu(r, a, b, cc, dd)
		return nil
	}
	old := *r
	d.alu(r, a, b, cc, dd)
	for l := range r {
		if mask&(1<<l) == 0 {
			r[l] = old[l]
		}
	}
	return nil
}

// runLoad executes ld for the warp. A constant ld.param address is read
// once and broadcast; global accesses look up each page once per
// instruction (pageCache).
func (m *Machine) runLoad(c *CTA, w *Warp, d *Inst, mask uint32, info *StepInfo) error {
	if d.err != nil {
		return d.err
	}
	in := d.Instr
	info.IsMem = true
	info.AccSize = d.accSize
	if mask == 0 {
		return nil
	}
	if d.laneErr != nil {
		return d.laneErr
	}
	ref := &d.mem
	var buf [32]byte
	es := d.elemSize
	if ref.base < 0 && ref.space == ptx.SpaceParam {
		b, err := m.loadView(c, w, 0, ptx.SpaceParam, ref.addr, buf[:d.accSize], nil)
		if err != nil {
			return wrap(in, err)
		}
		info.Space = ptx.SpaceParam
		for e, slot := range d.dsts {
			v := truncToType(leLoad(b[e*es:(e+1)*es]), in.T)
			r := w.row(slot)
			for l := range r {
				if mask&(1<<l) != 0 {
					r[l] = v
					info.Addrs[l] = ref.addr
				}
			}
		}
		return nil
	}
	// Loads do not sign-extend beyond the register width; widening is
	// handled by the type: ld.s16 into a 32-bit register sign-extends per
	// PTX semantics. For every other type truncToType of an es-byte value
	// is the identity.
	signed := in.T.Signed()
	var scalar *vec
	if len(d.dsts) == 1 {
		scalar = w.row(d.dsts[0])
	}
	var pc pageCache
	for l := 0; l < WarpSize; l++ {
		if mask&(1<<l) == 0 {
			continue
		}
		addr := ref.at(w, l)
		space := classifySpace(ref.space, addr)
		if info.Space == ptx.SpaceNone {
			info.Space = space
		}
		info.Addrs[l] = addr
		b, err := m.loadView(c, w, l, space, addr, buf[:d.accSize], &pc)
		if err != nil {
			return wrap(in, err)
		}
		if scalar != nil {
			v := leLoad(b)
			if signed {
				v = truncToType(v, in.T)
			}
			scalar[l] = v
			continue
		}
		for e, slot := range d.dsts {
			w.Regs[slot*WarpSize+l] = truncToType(leLoad(b[e*es:(e+1)*es]), in.T)
		}
	}
	return nil
}

// runStore executes st for the warp.
func (m *Machine) runStore(c *CTA, w *Warp, d *Inst, mask uint32, info *StepInfo) error {
	if d.err != nil {
		return d.err
	}
	in := d.Instr
	info.IsMem = true
	info.IsStore = true
	info.AccSize = d.accSize
	if mask == 0 {
		return nil
	}
	if d.laneErr != nil {
		return d.laneErr
	}
	ref := &d.mem
	var buf [32]byte
	b := buf[:d.accSize]
	var pc pageCache
	for l := 0; l < WarpSize; l++ {
		if mask&(1<<l) == 0 {
			continue
		}
		addr := ref.at(w, l)
		space := classifySpace(ref.space, addr)
		if info.Space == ptx.SpaceNone {
			info.Space = space
		}
		info.Addrs[l] = addr
		for e := 0; e < in.Vec; e++ {
			leStore(b[e*d.elemSize:(e+1)*d.elemSize], d.src[e].value(c, w, l))
		}
		if err := m.storeBytes(c, w, l, space, addr, b, &pc); err != nil {
			return wrap(in, err)
		}
	}
	return nil
}

// runAtom executes atom lane by lane, in lane order, straight against
// memory: each lane must see the previous lanes' updates.
func (m *Machine) runAtom(c *CTA, w *Warp, d *Inst, mask uint32, info *StepInfo) error {
	if d.err != nil {
		return d.err
	}
	in := d.Instr
	size := d.elemSize
	info.IsMem = true
	info.IsAtomic = true
	info.AccSize = size
	var buf [8]byte
	for l := 0; l < WarpSize; l++ {
		if mask&(1<<l) == 0 {
			continue
		}
		if d.laneErr != nil {
			return d.laneErr
		}
		addr := d.mem.at(w, l)
		space := classifySpace(d.mem.space, addr)
		info.Addrs[l] = addr
		if info.Space == ptx.SpaceNone {
			info.Space = space
		}
		if err := m.loadBytes(c, w, l, space, addr, buf[:size]); err != nil {
			return err
		}
		old := truncToType(leLoad(buf[:size]), in.T)
		if d.opErr != nil && d.opErr[0] != nil {
			return d.opErr[0]
		}
		b := d.src[0].value(c, w, l)
		var newV uint64
		switch in.Atom {
		case ptx.AtomAdd:
			if in.T.Float() {
				if in.T == ptx.F64 {
					newV = f64bits(bitsF64(old) + bitsF64(b))
				} else {
					newV = f32bits(bitsF32(old) + bitsF32(b))
				}
			} else {
				newV = truncToType(uint64(int64(old)+int64(b)), in.T)
			}
		case ptx.AtomMin, ptx.AtomMax:
			v, err := minMaxOp(in, in.T, old, b, in.Atom == ptx.AtomMin)
			if err != nil {
				return err
			}
			newV = v
		case ptx.AtomExch:
			newV = b
		case ptx.AtomAnd:
			newV = old & b
		case ptx.AtomOr:
			newV = old | b
		case ptx.AtomXor:
			newV = old ^ b
		case ptx.AtomCas:
			if d.opErr != nil && d.opErr[1] != nil {
				return d.opErr[1]
			}
			if old == truncToType(b, in.T) {
				newV = d.src[1].value(c, w, l)
			} else {
				newV = old
			}
		default:
			return fmt.Errorf("exec: %q: unsupported atomic op", in.Raw)
		}
		leStore(buf[:size], newV)
		if err := m.storeBytes(c, w, l, space, addr, buf[:size], nil); err != nil {
			return err
		}
		if d.dst >= 0 {
			w.Regs[d.dst*WarpSize+l] = old
		}
	}
	return nil
}

// runTex executes a texture fetch lane by lane.
func (m *Machine) runTex(c *CTA, w *Warp, d *Inst, mask uint32, info *StepInfo) error {
	if d.err != nil {
		return d.err
	}
	in := d.Instr
	if m.Tex == nil {
		return fmt.Errorf("exec: %q: no texture registry attached", in.Raw)
	}
	arr, err := m.Tex.LookupByName(in.Src[0].Sym)
	if err != nil {
		return fmt.Errorf("exec: %q: %w", in.Raw, err)
	}
	if m.rec != nil {
		// texture arrays live outside the recorded device memory, so a
		// capture that reads one cannot be validated later
		m.rec.unsound = true
	}
	info.IsMem = true
	info.Space = ptx.SpaceTex
	info.AccSize = 16
	for l := 0; l < WarpSize; l++ {
		if mask&(1<<l) == 0 {
			continue
		}
		if d.laneErr != nil {
			return d.laneErr
		}
		x := int(int32(d.src[0].value(c, w, l)))
		y := int(int32(d.src[1].value(c, w, l)))
		texel := arr.Fetch(x, y)
		for e, slot := range d.dsts {
			w.Regs[slot*WarpSize+l] = f32bits(texel[e])
		}
		info.Addrs[l] = uint64(y*arr.Width+x) * 4
	}
	return nil
}

func leLoad(b []byte) uint64 {
	switch len(b) {
	case 4:
		return uint64(binary.LittleEndian.Uint32(b))
	case 8:
		return binary.LittleEndian.Uint64(b)
	}
	var v uint64
	for i := len(b) - 1; i >= 0; i-- {
		v = v<<8 | uint64(b[i])
	}
	return v
}

func leStore(b []byte, v uint64) {
	for i := range b {
		b[i] = byte(v)
		v >>= 8
	}
}

// RunWarp executes a warp until it retires, blocks at a barrier, or the
// instruction budget is exhausted (budget < 0 means unlimited). It returns
// the number of instructions executed.
func (m *Machine) RunWarp(c *CTA, w *Warp, budget int64) (int64, error) {
	var n int64
	var info StepInfo
	for !w.Done && !w.AtBarrier {
		if budget >= 0 && n >= budget {
			break
		}
		if err := m.StepWarpCov(c, w, m.cov, &info); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

// RunCTA functionally executes one CTA to completion, interleaving warps
// at barrier granularity.
func (m *Machine) RunCTA(c *CTA) error {
	for {
		progressed := false
		for _, w := range c.Warps {
			if w.Done || w.AtBarrier {
				continue
			}
			n, err := m.RunWarp(c, w, -1)
			if err != nil {
				return fmt.Errorf("exec: kernel %s cta %d warp %d: %w",
					c.Grid.Kernel.Name, c.Index, w.ID, err)
			}
			if n > 0 {
				progressed = true
			}
		}
		live, waiting := 0, 0
		for _, w := range c.Warps {
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
			for _, w := range c.Warps {
				w.AtBarrier = false
			}
			progressed = true
			continue
		}
		if !progressed {
			return fmt.Errorf("exec: kernel %s cta %d deadlocked (%d live, %d at barrier)",
				c.Grid.Kernel.Name, c.Index, live, waiting)
		}
	}
}

// ReleaseBarrier clears the barrier flag on all warps if every live warp
// has arrived; it reports whether a release happened. The timing model
// uses this instead of RunCTA's inline logic.
func (c *CTA) ReleaseBarrier() bool {
	live, waiting := 0, 0
	for _, w := range c.Warps {
		if !w.Done {
			live++
			if w.AtBarrier {
				waiting++
			}
		}
	}
	if live > 0 && waiting == live {
		for _, w := range c.Warps {
			w.AtBarrier = false
		}
		return true
	}
	return false
}

// RunGrid functionally executes an entire launch, CTA by CTA. This is the
// paper's fast Functional simulation mode.
func (m *Machine) RunGrid(g *Grid) error {
	for i := 0; i < g.NumCTAs(); i++ {
		cta := g.InitCTA(i)
		if err := m.RunCTA(cta); err != nil {
			return err
		}
		g.ReleaseCTA(cta)
	}
	return nil
}
