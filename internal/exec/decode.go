package exec

// Pre-decoding. Each kernel is decoded once per Machine, at its first
// NewGrid, into a program of Insts. Decoding resolves everything the
// lane-by-lane interpreter used to re-derive for every lane of every
// executed instruction: operand kinds and register slots, immediates
// converted to the operand's type, ld.param and shared/local symbol bases
// turned into constant addresses, the scoreboard's source and destination
// slot lists, and the warp-wide function that executes the instruction.
// The BugSet's rem/bfe/BreakOp choices are made here too.
//
// A form that cannot be decoded does not fail decoding: its Inst carries
// the error, and the instruction fails when (and only when) it executes,
// with the same error text the interpreter has always reported.

import (
	"fmt"

	"repro/internal/device"
	"repro/internal/ptx"
)

// vec is one register slot across the 32 lanes of a warp.
type vec = [WarpSize]uint64

const fullMask = ^uint32(0)

// zeroVec stands in for the missing sources of an instruction written with
// fewer operands than its opcode reads (they read as zero).
var zeroVec vec

// aluFn computes an ALU result for all 32 lanes from up to four source
// rows. It must be pure: lanes outside the execution mask are computed
// too and then restored. r may alias a source row.
type aluFn func(r, a, b, c, d *vec)

// Inst is one pre-decoded instruction. The embedded *ptx.Instr is the
// parsed form; the rest is derived from it once per kernel.
type Inst struct {
	*ptx.Instr

	// SrcSlots lists the register slots the instruction reads: the guard
	// predicate, register sources, memory base registers and vector
	// elements. DstSlots lists the registers it writes. The timing
	// model's scoreboard reads both.
	SrcSlots []int
	DstSlots []int

	// err fails the instruction whenever it executes; laneErr fails it
	// when at least one lane executes. opErr holds an atomic's per-source
	// errors, which it reports only when a lane reaches that source; it
	// is nil when every source decoded.
	err, laneErr error
	opErr        *[2]error

	src  [4]operand
	dst  int   // ALU destination slot
	dsts []int // load/tex destination slots, one per vector element
	alu  aluFn
	sreg bool // some source is a special register

	mem      memRef
	elemSize int
	accSize  int // elemSize × vector width
}

// operand is one decoded scalar source.
type operand struct {
	imm  *vec     // immediate or symbol address, broadcast to every lane
	slot int32    // register slot, when imm == nil and sreg == SRegNone
	sreg ptx.SReg // special register
}

// row returns a register or immediate operand's 32 lane values.
func (o *operand) row(w *Warp) *vec {
	if o.imm != nil {
		return o.imm
	}
	return w.row(int(o.slot))
}

// value returns the operand's value in one lane.
func (o *operand) value(c *CTA, w *Warp, lane int) uint64 {
	switch {
	case o.imm != nil:
		return o.imm[0]
	case o.sreg != ptx.SRegNone:
		return sregValue(c, w, lane, o.sreg)
	}
	return w.Regs[int(o.slot)*WarpSize+lane]
}

// memRef is a decoded memory operand: a per-lane register base plus
// offset, or a constant address (parameter offset or windowed shared/local
// symbol address).
type memRef struct {
	base  int // address register slot, -1 for a constant address
	off   int64
	addr  uint64    // the constant address when base < 0
	space ptx.Space // the access's space before generic classification
}

// at returns the lane's effective address.
func (r *memRef) at(w *Warp, lane int) uint64 {
	if r.base < 0 {
		return r.addr
	}
	return uint64(int64(w.Regs[r.base*WarpSize+lane]) + r.off)
}

// program is one kernel's decoded instruction stream.
type program struct {
	insts []Inst
	imms  map[uint64]*vec // while decoding: one broadcast row per immediate value
}

// program returns the kernel's decoded program, decoding it on first use.
func (m *Machine) program(k *ptx.Kernel) *program {
	m.progMu.Lock()
	defer m.progMu.Unlock()
	if p := m.progs[k]; p != nil {
		return p
	}
	p := m.decode(k)
	m.progs[k] = p
	return p
}

func (m *Machine) decode(k *ptx.Kernel) *program {
	p := &program{insts: make([]Inst, len(k.Instrs)), imms: map[uint64]*vec{}}
	for pc := range k.Instrs {
		in := &k.Instrs[pc]
		d := &p.insts[pc]
		d.Instr = in
		d.SrcSlots, d.DstSlots = scoreboardSlots(in)
		switch in.Op {
		case ptx.OpBra, ptx.OpRet, ptx.OpExit, ptx.OpBar, ptx.OpMembar:
			// control flow runs inline in StepWarpCov
		case ptx.OpLd:
			p.decodeLoad(k, d)
		case ptx.OpSt:
			p.decodeStore(k, d)
		case ptx.OpAtom:
			p.decodeAtom(k, d)
		case ptx.OpTex:
			p.decodeTex(k, d)
		default:
			p.decodeALU(m, k, d)
		}
	}
	p.imms = nil
	return p
}

// scoreboardSlots lists the register slots an instruction reads (guard,
// register sources, memory bases, vector elements) and writes.
func scoreboardSlots(in *ptx.Instr) (src, dst []int) {
	if in.PredReg >= 0 {
		src = append(src, in.PredReg)
	}
	for i := range in.Src {
		o := &in.Src[i]
		switch o.Kind {
		case ptx.OperandReg:
			src = append(src, o.Reg)
		case ptx.OperandMem:
			if o.Base >= 0 {
				src = append(src, o.Base)
			}
		case ptx.OperandVec:
			for j := range o.Elems {
				if o.Elems[j].Kind == ptx.OperandReg {
					src = append(src, o.Elems[j].Reg)
				}
			}
		}
	}
	for i := range in.Dst {
		o := &in.Dst[i]
		switch o.Kind {
		case ptx.OperandReg:
			dst = append(dst, o.Reg)
		case ptx.OperandVec:
			for j := range o.Elems {
				if o.Elems[j].Kind == ptx.OperandReg {
					dst = append(dst, o.Elems[j].Reg)
				}
			}
		}
	}
	return src, dst
}

// broadcast returns the program's shared all-lanes row holding v.
func (p *program) broadcast(v uint64) *vec {
	if r := p.imms[v]; r != nil {
		return r
	}
	r := new(vec)
	for l := range r {
		r[l] = v
	}
	p.imms[v] = r
	return r
}

// operand decodes a scalar source read as type t. An operand that cannot
// be read decodes to zero with the error its read reports.
func (p *program) operand(k *ptx.Kernel, o *ptx.Operand, t ptx.Type) (operand, error) {
	switch o.Kind {
	case ptx.OperandReg:
		return operand{slot: int32(o.Reg)}, nil
	case ptx.OperandSReg:
		return operand{sreg: o.SReg}, nil
	case ptx.OperandImm:
		return operand{imm: p.broadcast(immValue(o, t))}, nil
	case ptx.OperandSym:
		a, err := symAddress(k, o.Sym)
		if err != nil {
			return operand{imm: &zeroVec}, err
		}
		return operand{imm: p.broadcast(a)}, nil
	}
	return operand{imm: &zeroVec}, fmt.Errorf("exec: unsupported source operand kind %d", o.Kind)
}

// memRefOf decodes a memory operand. A symbol base is a parameter (its
// offset, in parameter space) or a shared/local variable (its windowed
// address, in the instruction's space); an unknown symbol is an error
// each active lane would report first.
func memRefOf(k *ptx.Kernel, in *ptx.Instr, o *ptx.Operand) (memRef, error) {
	r := memRef{base: o.Base, off: o.Offset, space: in.Space}
	if o.Base >= 0 {
		return r, nil
	}
	r.base = -1
	if prm := k.ParamByName(o.BaseSym); prm != nil {
		r.addr = uint64(int64(prm.Offset) + o.Offset)
		r.space = ptx.SpaceParam
		return r, nil
	}
	base, err := symAddress(k, o.BaseSym)
	if err != nil {
		return r, wrap(in, err)
	}
	r.addr = uint64(int64(base) + o.Offset)
	return r, nil
}

// wrap prefixes an error with the instruction text.
func wrap(in *ptx.Instr, err error) error { return fmt.Errorf("exec: %q: %w", in.Raw, err) }

func (p *program) decodeALU(m *Machine, k *ptx.Kernel, d *Inst) {
	in := d.Instr
	if len(in.Dst) == 0 {
		d.err = fmt.Errorf("exec: %q: missing destination", in.Raw)
		return
	}
	if in.Dst[0].Kind != ptx.OperandReg {
		d.err = fmt.Errorf("exec: %q: non-register destination", in.Raw)
		return
	}
	d.dst = in.Dst[0].Reg
	if len(in.Src) > len(d.src) {
		d.laneErr = fmt.Errorf("exec: %q: %d source operands", in.Raw, len(in.Src))
		return
	}
	srcT := in.T
	if in.Op == ptx.OpCvt && in.T2 != ptx.TypeNone {
		srcT = in.T2
	}
	for i := range d.src {
		if i >= len(in.Src) {
			d.src[i] = operand{imm: &zeroVec}
			continue
		}
		st := srcT
		if in.Op == ptx.OpSelp && i == 2 {
			st = ptx.Pred
		}
		if in.Op == ptx.OpSlct && i == 2 {
			st = in.T2
		}
		o, err := p.operand(k, &in.Src[i], st)
		if err != nil && d.laneErr == nil {
			d.laneErr = wrap(in, err)
		}
		if o.sreg != ptx.SRegNone {
			d.sreg = true
		}
		d.src[i] = o
	}
	if d.laneErr != nil {
		return
	}
	// Every ALU error depends on the opcode, type and modifiers only, never
	// on operand values, so one evaluation tells whether the instruction
	// can execute at all.
	if _, err := m.evalALU(in, [4]uint64{}); err != nil {
		d.laneErr = err
		return
	}
	d.alu = aluKernel(m, in)
}

func (p *program) decodeLoad(k *ptx.Kernel, d *Inst) {
	in := d.Instr
	if len(in.Src) == 0 || in.Src[0].Kind != ptx.OperandMem {
		d.err = fmt.Errorf("exec: %q: load source is not a memory operand", in.Raw)
		return
	}
	d.elemSize = in.T.Size()
	d.accSize = d.elemSize * in.Vec
	d.mem, d.laneErr = memRefOf(k, in, &in.Src[0])
	switch {
	case len(in.Dst) == 0:
		d.err = fmt.Errorf("exec: %q: missing destination", in.Raw)
	case in.Vec == 1:
		d.dsts = []int{in.Dst[0].Reg}
	case len(in.Dst[0].Elems) < in.Vec:
		d.err = fmt.Errorf("exec: %q: %d destination elements for .v%d", in.Raw, len(in.Dst[0].Elems), in.Vec)
	default:
		for e := 0; e < in.Vec; e++ {
			d.dsts = append(d.dsts, in.Dst[0].Elems[e].Reg)
		}
	}
}

func (p *program) decodeStore(k *ptx.Kernel, d *Inst) {
	in := d.Instr
	if len(in.Src) == 0 || in.Src[0].Kind != ptx.OperandMem {
		d.err = fmt.Errorf("exec: %q: store target is not a memory operand", in.Raw)
		return
	}
	d.elemSize = in.T.Size()
	d.accSize = d.elemSize * in.Vec
	// the address is resolved before the value, so its error comes first
	d.mem, d.laneErr = memRefOf(k, in, &in.Src[0])
	if len(in.Src) < 2 {
		d.err = fmt.Errorf("exec: %q: missing store value", in.Raw)
		return
	}
	val := &in.Src[1]
	vals := []*ptx.Operand{val}
	if in.Vec > 1 {
		if len(val.Elems) < in.Vec {
			d.err = fmt.Errorf("exec: %q: %d store elements for .v%d", in.Raw, len(val.Elems), in.Vec)
			return
		}
		vals = vals[:0]
		for e := 0; e < in.Vec; e++ {
			vals = append(vals, &val.Elems[e])
		}
	}
	for e, o := range vals {
		var err error
		d.src[e], err = p.operand(k, o, in.T)
		if err != nil && d.laneErr == nil {
			d.laneErr = wrap(in, err)
		}
	}
}

func (p *program) decodeAtom(k *ptx.Kernel, d *Inst) {
	in := d.Instr
	if len(in.Src) < 2 || in.Src[0].Kind != ptx.OperandMem {
		d.err = fmt.Errorf("exec: %q: atomic needs a memory operand and a value", in.Raw)
		return
	}
	if in.Atom == ptx.AtomCas && len(in.Src) < 3 {
		d.err = fmt.Errorf("exec: %q: atom.cas needs a compare value", in.Raw)
		return
	}
	d.elemSize = in.T.Size()
	d.mem, d.laneErr = memRefOf(k, in, &in.Src[0])
	for i := 1; i < len(in.Src) && i <= 2; i++ {
		var err error
		if d.src[i-1], err = p.operand(k, &in.Src[i], in.T); err != nil {
			if d.opErr == nil {
				d.opErr = new([2]error)
			}
			d.opErr[i-1] = err
		}
	}
	d.dst = -1
	if len(in.Dst) > 0 && in.Dst[0].Kind == ptx.OperandReg {
		d.dst = in.Dst[0].Reg
	}
}

func (p *program) decodeTex(k *ptx.Kernel, d *Inst) {
	in := d.Instr
	if len(in.Src) < 2 || len(in.Dst) == 0 {
		d.err = fmt.Errorf("exec: %q: malformed texture fetch", in.Raw)
		return
	}
	// Coordinates read as s32; the first that cannot be read fails the
	// first active lane.
	coords := []*ptx.Operand{&in.Src[1]}
	if c := &in.Src[1]; c.Kind == ptx.OperandVec {
		if len(c.Elems) == 0 {
			d.err = fmt.Errorf("exec: %q: empty texture coordinate", in.Raw)
			return
		}
		coords = []*ptx.Operand{&c.Elems[0]}
		if in.Geom == 2 && len(c.Elems) > 1 {
			coords = append(coords, &c.Elems[1])
		}
	}
	d.src[1] = operand{imm: &zeroVec}
	for i, o := range coords {
		var err error
		if d.src[i], err = p.operand(k, o, ptx.S32); err != nil && d.laneErr == nil {
			d.laneErr = err
		}
	}
	dst := &in.Dst[0]
	if dst.Kind == ptx.OperandVec {
		for e := 0; e < len(dst.Elems) && e < 4; e++ {
			d.dsts = append(d.dsts, dst.Elems[e].Reg)
		}
	} else {
		d.dsts = []int{dst.Reg}
	}
}

// symAddress resolves a bare symbol operand (shared/local variable name)
// to its windowed generic address.
func symAddress(k *ptx.Kernel, sym string) (uint64, error) {
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
