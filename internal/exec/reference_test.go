package exec

// The lane-by-lane interpreter that the pre-decoded one (decode.go,
// alu_warp.go, step.go) replaced, kept as the reference implementation
// for differential_test.go, as internal/timing's equivalence_test.go
// keeps the legacy drain loop. It re-resolves every operand, parameter
// symbol and evalALU dispatch per lane, straight from the parsed
// ptx.Instr. Apart from renaming (a ref prefix on every function and on
// StepInfo, whose Instr field the decoded StepInfo replaced with Inst)
// and the deviations below, the code is the previous implementation
// unchanged:
//   - sregValue became a plain function, which the reference calls
//     directly;
//   - remOp/bfeOp lost their Machine receiver, so evalALU (shared by
//     both interpreters) picks the bug variants.

import (
	"fmt"

	"repro/internal/device"
	"repro/internal/ptx"
)

// refStepInfo is the reference interpreter's StepInfo.
type refStepInfo struct {
	PC         int
	Instr      *ptx.Instr
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

// refStepWarpCov is StepWarp with an explicit coverage sink. Concurrent
// callers stepping disjoint CTAs (the parallel timing engine) pass
// per-worker Coverage shards so the shared machine-level counters are
// never written from two goroutines; shards are merged back with
// Coverage.Merge at kernel boundaries. A nil cov disables coverage
// recording.
func (m *Machine) refStepWarpCov(c *CTA, w *Warp, cov *Coverage) (refStepInfo, error) {
	var info refStepInfo
	if w.Done {
		return info, fmt.Errorf("exec: step of retired warp %d", w.ID)
	}
	if w.AtBarrier {
		return info, fmt.Errorf("exec: step of warp %d blocked at barrier", w.ID)
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
		return info, nil
	}

	k := c.Grid.Kernel
	if top.PC >= len(k.Instrs) {
		// Fell off the end of the kernel: implicit ret for all lanes.
		m.retireLanes(w, top.Mask)
		info.WarpDone = w.Done
		return info, nil
	}

	in := &k.Instrs[top.PC]
	info.PC = top.PC
	info.Instr = in

	// Guard predicate: per-lane execution mask.
	execMask := top.Mask
	if in.PredReg >= 0 {
		var pm uint32
		for l := 0; l < WarpSize; l++ {
			if top.Mask&(1<<l) == 0 {
				continue
			}
			p := w.Reg(in.PredReg, l) != 0
			if p != in.PredNeg {
				pm |= 1 << l
			}
		}
		execMask = pm
	}
	info.ActiveMask = execMask
	w.InstrCount++
	if cov != nil {
		cov.Note(in, execMask)
	}

	switch in.Op {
	case ptx.OpBra:
		m.stepBranch(w, top, in, execMask)
		return info, nil

	case ptx.OpRet, ptx.OpExit:
		if execMask == top.Mask {
			m.retireLanes(w, execMask)
		} else {
			m.retireLanes(w, execMask)
			if !w.Done {
				nt := &w.Stack[len(w.Stack)-1]
				if nt.PC == in.PC { // surviving lanes continue past the guard
					nt.PC++
				}
			}
		}
		info.WarpDone = w.Done
		return info, nil

	case ptx.OpBar:
		if len(w.Stack) != 1 {
			return info, fmt.Errorf("exec: kernel %s pc %d: bar.sync in divergent control flow", k.Name, in.PC)
		}
		w.AtBarrier = true
		top.PC++
		info.Barrier = true
		return info, nil

	case ptx.OpMembar:
		top.PC++
		return info, nil

	case ptx.OpLd:
		if err := m.refStepLoad(c, w, in, execMask, &info); err != nil {
			return info, err
		}
	case ptx.OpSt:
		if err := m.refStepStore(c, w, in, execMask, &info); err != nil {
			return info, err
		}
	case ptx.OpAtom:
		if err := m.refStepAtom(c, w, in, execMask, &info); err != nil {
			return info, err
		}
	case ptx.OpTex:
		if err := m.refStepTex(c, w, in, execMask, &info); err != nil {
			return info, err
		}
	default:
		if err := m.refStepALU(c, w, in, execMask); err != nil {
			return info, err
		}
	}
	top.PC++
	return info, nil
}

func (m *Machine) refStepALU(c *CTA, w *Warp, in *ptx.Instr, execMask uint32) error {
	if len(in.Dst) == 0 {
		return fmt.Errorf("exec: %q: missing destination", in.Raw)
	}
	d := &in.Dst[0]
	// mov of a vector (pack/unpack) is unsupported; scalar only.
	if d.Kind != ptx.OperandReg {
		return fmt.Errorf("exec: %q: non-register destination", in.Raw)
	}
	srcT := in.T
	if in.Op == ptx.OpCvt && in.T2 != ptx.TypeNone {
		srcT = in.T2
	}
	var s [4]uint64
	for l := 0; l < WarpSize; l++ {
		if execMask&(1<<l) == 0 {
			continue
		}
		for i := range in.Src {
			st := srcT
			if in.Op == ptx.OpSelp && i == 2 {
				st = ptx.Pred
			}
			if in.Op == ptx.OpSlct && i == 2 {
				st = in.T2
			}
			v, err := m.refReadOperand(c, w, l, &in.Src[i], st)
			if err != nil {
				return fmt.Errorf("exec: %q: %w", in.Raw, err)
			}
			s[i] = v
		}
		r, err := m.evalALU(in, s)
		if err != nil {
			return err
		}
		w.SetReg(d.Reg, l, r)
	}
	return nil
}

func (m *Machine) refStepLoad(c *CTA, w *Warp, in *ptx.Instr, execMask uint32, info *refStepInfo) error {
	src := &in.Src[0]
	if src.Kind != ptx.OperandMem {
		return fmt.Errorf("exec: %q: load source is not a memory operand", in.Raw)
	}
	elemSize := in.T.Size()
	total := elemSize * in.Vec
	info.IsMem = true
	info.AccSize = total
	var buf [32]byte
	for l := 0; l < WarpSize; l++ {
		if execMask&(1<<l) == 0 {
			continue
		}
		addr, space, err := m.refMemAddress(c, w, l, in, src)
		if err != nil {
			return fmt.Errorf("exec: %q: %w", in.Raw, err)
		}
		if info.Space == ptx.SpaceNone {
			info.Space = classifySpace(space, addr)
		}
		info.Addrs[l] = addr
		if err := m.refLoadBytes(c, w, l, space, addr, buf[:total]); err != nil {
			return fmt.Errorf("exec: %q: %w", in.Raw, err)
		}
		if in.Vec == 1 {
			v := leLoad(buf[:elemSize])
			// Loads do not sign-extend beyond the register width; widening
			// is handled by the type: ld.s16 into a 32-bit register
			// sign-extends per PTX semantics.
			w.SetReg(in.Dst[0].Reg, l, truncToType(v, in.T))
		} else {
			for e := 0; e < in.Vec; e++ {
				v := leLoad(buf[e*elemSize : (e+1)*elemSize])
				w.SetReg(in.Dst[0].Elems[e].Reg, l, truncToType(v, in.T))
			}
		}
	}
	return nil
}

func (m *Machine) refStepStore(c *CTA, w *Warp, in *ptx.Instr, execMask uint32, info *refStepInfo) error {
	addrOp := &in.Src[0]
	valOp := &in.Src[1]
	if addrOp.Kind != ptx.OperandMem {
		return fmt.Errorf("exec: %q: store target is not a memory operand", in.Raw)
	}
	elemSize := in.T.Size()
	total := elemSize * in.Vec
	info.IsMem = true
	info.IsStore = true
	info.AccSize = total
	var buf [32]byte
	for l := 0; l < WarpSize; l++ {
		if execMask&(1<<l) == 0 {
			continue
		}
		addr, space, err := m.refMemAddress(c, w, l, in, addrOp)
		if err != nil {
			return fmt.Errorf("exec: %q: %w", in.Raw, err)
		}
		if info.Space == ptx.SpaceNone {
			info.Space = classifySpace(space, addr)
		}
		info.Addrs[l] = addr
		if in.Vec == 1 {
			v, err := m.refReadOperand(c, w, l, valOp, in.T)
			if err != nil {
				return fmt.Errorf("exec: %q: %w", in.Raw, err)
			}
			leStore(buf[:elemSize], v)
		} else {
			for e := 0; e < in.Vec; e++ {
				v, err := m.refReadOperand(c, w, l, &valOp.Elems[e], in.T)
				if err != nil {
					return fmt.Errorf("exec: %q: %w", in.Raw, err)
				}
				leStore(buf[e*elemSize:(e+1)*elemSize], v)
			}
		}
		if err := m.refStoreBytes(c, w, l, space, addr, buf[:total]); err != nil {
			return fmt.Errorf("exec: %q: %w", in.Raw, err)
		}
	}
	return nil
}

func (m *Machine) refStepAtom(c *CTA, w *Warp, in *ptx.Instr, execMask uint32, info *refStepInfo) error {
	addrOp := &in.Src[0]
	size := in.T.Size()
	info.IsMem = true
	info.IsAtomic = true
	info.AccSize = size
	var buf [8]byte
	for l := 0; l < WarpSize; l++ {
		if execMask&(1<<l) == 0 {
			continue
		}
		addr, space, err := m.refMemAddress(c, w, l, in, addrOp)
		if err != nil {
			return fmt.Errorf("exec: %q: %w", in.Raw, err)
		}
		info.Addrs[l] = addr
		if info.Space == ptx.SpaceNone {
			info.Space = classifySpace(space, addr)
		}
		if err := m.refLoadBytes(c, w, l, space, addr, buf[:size]); err != nil {
			return err
		}
		old := truncToType(leLoad(buf[:size]), in.T)
		b, err := m.refReadOperand(c, w, l, &in.Src[1], in.T)
		if err != nil {
			return err
		}
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
			cVal, err := m.refReadOperand(c, w, l, &in.Src[2], in.T)
			if err != nil {
				return err
			}
			if old == truncToType(b, in.T) {
				newV = cVal
			} else {
				newV = old
			}
		default:
			return fmt.Errorf("exec: %q: unsupported atomic op", in.Raw)
		}
		leStore(buf[:size], newV)
		if err := m.refStoreBytes(c, w, l, space, addr, buf[:size]); err != nil {
			return err
		}
		if len(in.Dst) > 0 && in.Dst[0].Kind == ptx.OperandReg {
			w.SetReg(in.Dst[0].Reg, l, old)
		}
	}
	return nil
}

func (m *Machine) refStepTex(c *CTA, w *Warp, in *ptx.Instr, execMask uint32, info *refStepInfo) error {
	if m.Tex == nil {
		return fmt.Errorf("exec: %q: no texture registry attached", in.Raw)
	}
	name := in.Src[0].Sym
	arr, err := m.Tex.LookupByName(name)
	if err != nil {
		return fmt.Errorf("exec: %q: %w", in.Raw, err)
	}
	if m.rec != nil {
		// texture arrays live outside the recorded device memory, so a
		// capture that reads one cannot be validated later
		m.rec.unsound = true
	}
	coord := &in.Src[1]
	dst := &in.Dst[0]
	info.IsMem = true
	info.Space = ptx.SpaceTex
	info.AccSize = 16
	for l := 0; l < WarpSize; l++ {
		if execMask&(1<<l) == 0 {
			continue
		}
		var x, y int
		switch coord.Kind {
		case ptx.OperandVec:
			v0, err := m.refReadOperand(c, w, l, &coord.Elems[0], ptx.S32)
			if err != nil {
				return err
			}
			x = int(int32(v0))
			if in.Geom == 2 && len(coord.Elems) > 1 {
				v1, err := m.refReadOperand(c, w, l, &coord.Elems[1], ptx.S32)
				if err != nil {
					return err
				}
				y = int(int32(v1))
			}
		default:
			v0, err := m.refReadOperand(c, w, l, coord, ptx.S32)
			if err != nil {
				return err
			}
			x = int(int32(v0))
		}
		texel := arr.Fetch(x, y)
		if dst.Kind == ptx.OperandVec {
			for e := 0; e < len(dst.Elems) && e < 4; e++ {
				w.SetReg(dst.Elems[e].Reg, l, f32bits(texel[e]))
			}
		} else {
			w.SetReg(dst.Reg, l, f32bits(texel[0]))
		}
		info.Addrs[l] = uint64(y*arr.Width+x) * 4
	}
	return nil
}

// refSymAddress resolves a bare symbol operand (shared/local variable name)
// to its windowed generic address.
func (m *Machine) refSymAddress(k *ptx.Kernel, sym string) (uint64, error) {
	for _, v := range k.SharedVars {
		if v.Name == sym {
			return device.SharedWindowBase + uint64(v.Offset), nil
		}
	}
	for _, v := range k.LocalVars {
		if v.Name == sym {
			return device.LocalWindowBase + uint64(v.Offset), nil
		}
	}
	return 0, fmt.Errorf("exec: unknown symbol %q in kernel %s", sym, k.Name)
}

// refReadOperand fetches one scalar source operand for a lane.
func (m *Machine) refReadOperand(c *CTA, w *Warp, lane int, o *ptx.Operand, t ptx.Type) (uint64, error) {
	switch o.Kind {
	case ptx.OperandReg:
		return w.Reg(o.Reg, lane), nil
	case ptx.OperandSReg:
		return sregValue(c, w, lane, o.SReg), nil
	case ptx.OperandImm:
		return immValue(o, t), nil
	case ptx.OperandSym:
		return m.refSymAddress(c.Grid.Kernel, o.Sym)
	}
	return 0, fmt.Errorf("exec: unsupported source operand kind %d", o.Kind)
}

func (m *Machine) refLoadBytes(c *CTA, w *Warp, lane int, space ptx.Space, addr uint64, buf []byte) error {
	switch classifySpace(space, addr) {
	case ptx.SpaceShared:
		off := addr
		if device.InSharedWindow(addr) {
			off = addr - device.SharedWindowBase
		}
		if int(off)+len(buf) > len(c.Shared) {
			return fmt.Errorf("exec: shared load out of bounds: off %d size %d (smem %d)", off, len(buf), len(c.Shared))
		}
		copy(buf, c.Shared[off:])
	case ptx.SpaceLocal:
		off := addr
		if device.InLocalWindow(addr) {
			off = addr - device.LocalWindowBase
		}
		lm := w.Locals[lane]
		if int(off)+len(buf) > len(lm) {
			return fmt.Errorf("exec: local load out of bounds: off %d size %d (lmem %d)", off, len(buf), len(lm))
		}
		copy(buf, lm[off:])
	case ptx.SpaceParam:
		p := c.Grid.Params
		if int(addr)+len(buf) > len(p) {
			return fmt.Errorf("exec: param load out of bounds: off %d size %d (params %d)", addr, len(buf), len(p))
		}
		copy(buf, p[addr:])
	default: // global, const
		m.Mem.Read(addr, buf)
		if m.rec != nil {
			m.rec.recordRead(addr, buf)
		}
	}
	return nil
}

func (m *Machine) refStoreBytes(c *CTA, w *Warp, lane int, space ptx.Space, addr uint64, buf []byte) error {
	switch classifySpace(space, addr) {
	case ptx.SpaceShared:
		off := addr
		if device.InSharedWindow(addr) {
			off = addr - device.SharedWindowBase
		}
		if int(off)+len(buf) > len(c.Shared) {
			return fmt.Errorf("exec: shared store out of bounds: off %d size %d (smem %d)", off, len(buf), len(c.Shared))
		}
		copy(c.Shared[off:], buf)
	case ptx.SpaceLocal:
		off := addr
		if device.InLocalWindow(addr) {
			off = addr - device.LocalWindowBase
		}
		lm := w.Locals[lane]
		if int(off)+len(buf) > len(lm) {
			return fmt.Errorf("exec: local store out of bounds: off %d size %d (lmem %d)", off, len(buf), len(lm))
		}
		copy(lm[off:], buf)
	case ptx.SpaceParam:
		return fmt.Errorf("exec: store to parameter space")
	default:
		if m.rec != nil {
			m.rec.recordWrite(addr, buf)
		}
		m.Mem.Write(addr, buf)
	}
	return nil
}

// refMemAddress computes the effective address of a memory operand for a lane.
// For ld.param with a symbol base, the address is the parameter offset.
func (m *Machine) refMemAddress(c *CTA, w *Warp, lane int, in *ptx.Instr, o *ptx.Operand) (uint64, ptx.Space, error) {
	space := in.Space
	if o.Base >= 0 {
		return uint64(int64(w.Reg(o.Base, lane)) + o.Offset), space, nil
	}
	// Symbol base: parameter name or shared/local variable.
	k := c.Grid.Kernel
	if p := k.ParamByName(o.BaseSym); p != nil {
		return uint64(int64(p.Offset) + o.Offset), ptx.SpaceParam, nil
	}
	base, err := m.refSymAddress(k, o.BaseSym)
	if err != nil {
		return 0, space, err
	}
	return uint64(int64(base) + o.Offset), space, nil
}

// RefStepInfo and RefStepWarp expose the reference interpreter to the
// external differential test package.
type RefStepInfo = refStepInfo

// RefStepWarp steps one warp instruction through the reference
// interpreter.
func (m *Machine) RefStepWarp(c *CTA, w *Warp, cov *Coverage) (RefStepInfo, error) {
	return m.refStepWarpCov(c, w, cov)
}
