package exec

import (
	"math"

	"repro/internal/ptx"
)

// Warp-wide ALU functions. aluKernel binds each decoded ALU instruction to
// a function that computes all 32 lanes in one loop. The hot (op, type)
// pairs of the kernel corpus get hand-written loops; every other pair
// loops over its scalar helper from alu.go; anything left falls back to
// evalALU lane by lane. Each must agree bit for bit with evalALU, which
// stays the reference semantics (FuzzStepDifferential and
// TestDifferentialInterpreter check them against each other).

// aluKernel picks the warp-wide function for an instruction that decoded
// without error. The BugSet choices are made here: a BreakOp opcode runs
// through evalALU, which complements its result, and rem and bfe get
// their RemU64/BFESigned variants.
func aluKernel(m *Machine, in *ptx.Instr) aluFn {
	bugs := m.cfg.Bugs
	if bugs.broken(in.Op) {
		return laneALU(m, in)
	}
	t := in.T
	switch in.Op {
	case ptx.OpMov, ptx.OpCvta:
		return movW
	case ptx.OpAdd, ptx.OpSub:
		if f := addSubW(in.Op == ptx.OpSub, t); f != nil {
			return f
		}
		sub := in.Op == ptx.OpSub
		return func(r, a, b, _, _ *vec) {
			for l := range r {
				r[l], _ = addSubOp(in, t, a[l], b[l], sub)
			}
		}
	case ptx.OpMul:
		if f := mulW(in); f != nil {
			return f
		}
		return func(r, a, b, _, _ *vec) {
			for l := range r {
				r[l], _ = mulOp(in, t, a[l], b[l])
			}
		}
	case ptx.OpMad:
		if f := madW(in); f != nil {
			return f
		}
		return func(r, a, b, c, _ *vec) {
			for l := range r {
				r[l], _ = madOp(in, t, a[l], b[l], c[l])
			}
		}
	case ptx.OpFma:
		if t == ptx.F32 {
			return fmaF32W
		}
		return func(r, a, b, c, _ *vec) {
			for l := range r {
				r[l], _ = fmaOp(in, t, a[l], b[l], c[l])
			}
		}
	case ptx.OpDiv:
		return func(r, a, b, _, _ *vec) {
			for l := range r {
				r[l], _ = divOp(in, t, a[l], b[l])
			}
		}
	case ptx.OpRem:
		if bugs.RemU64 {
			return func(r, a, b, _, _ *vec) {
				for l := range r {
					r[l] = remU64(a[l], b[l])
				}
			}
		}
		return func(r, a, b, _, _ *vec) {
			for l := range r {
				r[l], _ = remOp(in, t, a[l], b[l])
			}
		}
	case ptx.OpMin, ptx.OpMax:
		isMin := in.Op == ptx.OpMin
		return func(r, a, b, _, _ *vec) {
			for l := range r {
				r[l], _ = minMaxOp(in, t, a[l], b[l], isMin)
			}
		}
	case ptx.OpSetp:
		return setpW(in.Cmp, t)
	case ptx.OpSelp:
		return selpW
	case ptx.OpAnd:
		return andW
	case ptx.OpOr:
		return orW
	case ptx.OpXor:
		return xorW
	case ptx.OpNot:
		return notW
	case ptx.OpShl, ptx.OpShr:
		left := in.Op == ptx.OpShl
		return func(r, a, b, _, _ *vec) {
			for l := range r {
				r[l] = shiftOp(t, a[l], b[l], left)
			}
		}
	case ptx.OpBfe:
		signExt := !bugs.BFESigned
		return func(r, a, b, c, _ *vec) {
			for l := range r {
				r[l] = bfeOp(t, a[l], b[l], c[l], signExt)
			}
		}
	case ptx.OpCvt:
		return func(r, a, _, _, _ *vec) {
			for l := range r {
				r[l], _ = cvtOp(in, a[l])
			}
		}
	}
	return laneALU(m, in)
}

// laneALU evaluates an instruction lane by lane through evalALU.
func laneALU(m *Machine, in *ptx.Instr) aluFn {
	return func(r, a, b, c, d *vec) {
		for l := range r {
			r[l], _ = m.evalALU(in, [4]uint64{a[l], b[l], c[l], d[l]})
		}
	}
}

func movW(r, a, _, _, _ *vec) { *r = *a }

func selpW(r, a, b, c, _ *vec) {
	for l := range r {
		if c[l] != 0 {
			r[l] = a[l]
		} else {
			r[l] = b[l]
		}
	}
}

func andW(r, a, b, _, _ *vec) {
	for l := range r {
		r[l] = a[l] & b[l]
	}
}

func orW(r, a, b, _, _ *vec) {
	for l := range r {
		r[l] = a[l] | b[l]
	}
}

func xorW(r, a, b, _, _ *vec) {
	for l := range r {
		r[l] = a[l] ^ b[l]
	}
}

func notW(r, a, _, _, _ *vec) {
	for l := range r {
		r[l] = ^a[l]
	}
}

// addSubW returns the loop for add/sub of the common types, or nil.
func addSubW(sub bool, t ptx.Type) aluFn {
	switch {
	case t == ptx.U32 || t == ptx.B32:
		if sub {
			return func(r, a, b, _, _ *vec) {
				for l := range r {
					r[l] = uint64(uint32(a[l] - b[l]))
				}
			}
		}
		return func(r, a, b, _, _ *vec) {
			for l := range r {
				r[l] = uint64(uint32(a[l] + b[l]))
			}
		}
	case t == ptx.S32:
		if sub {
			return func(r, a, b, _, _ *vec) {
				for l := range r {
					r[l] = uint64(int64(int32(a[l] - b[l])))
				}
			}
		}
		return func(r, a, b, _, _ *vec) {
			for l := range r {
				r[l] = uint64(int64(int32(a[l] + b[l])))
			}
		}
	case t.Size() == 8 && t.Integer():
		if sub {
			return func(r, a, b, _, _ *vec) {
				for l := range r {
					r[l] = a[l] - b[l]
				}
			}
		}
		return func(r, a, b, _, _ *vec) {
			for l := range r {
				r[l] = a[l] + b[l]
			}
		}
	case t == ptx.F32:
		if sub {
			return func(r, a, b, _, _ *vec) {
				for l := range r {
					r[l] = f32bits(bitsF32(a[l]) - bitsF32(b[l]))
				}
			}
		}
		return func(r, a, b, _, _ *vec) {
			for l := range r {
				r[l] = f32bits(bitsF32(a[l]) + bitsF32(b[l]))
			}
		}
	}
	return nil
}

// mulW returns the loop for mul of the common forms, or nil.
func mulW(in *ptx.Instr) aluFn {
	t := in.T
	switch {
	case t == ptx.F32:
		return func(r, a, b, _, _ *vec) {
			for l := range r {
				r[l] = f32bits(bitsF32(a[l]) * bitsF32(b[l]))
			}
		}
	case in.Wide && t == ptx.U32:
		return func(r, a, b, _, _ *vec) {
			for l := range r {
				r[l] = uint64(uint32(a[l])) * uint64(uint32(b[l]))
			}
		}
	case in.Wide && t == ptx.S32:
		return func(r, a, b, _, _ *vec) {
			for l := range r {
				r[l] = uint64(int64(int32(a[l])) * int64(int32(b[l])))
			}
		}
	case in.Wide || in.Hi:
		return nil
	case t == ptx.U32 || t == ptx.B32:
		return func(r, a, b, _, _ *vec) {
			for l := range r {
				r[l] = uint64(uint32(a[l] * b[l]))
			}
		}
	case t == ptx.S32:
		return func(r, a, b, _, _ *vec) {
			for l := range r {
				r[l] = uint64(int64(int32(a[l] * b[l])))
			}
		}
	}
	return nil
}

// madW returns the loop for mad of the common forms, or nil.
func madW(in *ptx.Instr) aluFn {
	t := in.T
	switch {
	case t == ptx.F32:
		return fmaF32W
	case in.Wide && t == ptx.U32:
		return func(r, a, b, c, _ *vec) {
			for l := range r {
				r[l] = uint64(uint32(a[l]))*uint64(uint32(b[l])) + c[l]
			}
		}
	case in.Wide && t == ptx.S32:
		return func(r, a, b, c, _ *vec) {
			for l := range r {
				r[l] = uint64(int64(int32(a[l]))*int64(int32(b[l])) + int64(c[l]))
			}
		}
	case in.Wide || in.Hi:
		return nil
	case t == ptx.U32 || t == ptx.B32:
		return func(r, a, b, c, _ *vec) {
			for l := range r {
				r[l] = uint64(uint32(a[l]*b[l] + c[l]))
			}
		}
	case t == ptx.S32:
		return func(r, a, b, c, _ *vec) {
			for l := range r {
				r[l] = uint64(int64(int32(a[l]*b[l] + c[l])))
			}
		}
	}
	return nil
}

func fmaF32W(r, a, b, c, _ *vec) {
	for l := range r {
		r[l] = f32bits(float32(math.FMA(float64(bitsF32(a[l])), float64(bitsF32(b[l])), float64(bitsF32(c[l])))))
	}
}

// Comparison outcomes, as bit positions of a setp truth table.
const (
	cmpLess = 1 << iota
	cmpEqual
	cmpGreater
	cmpUnordered
)

// setpW returns the setp loop: each lane's comparison outcome selects a
// bit of a truth table built once from the comparison operator. Types and
// operators compare decides differently (f16, and any pair compare
// rejects, which never reaches here) fall back to compare itself.
func setpW(op ptx.CmpOp, t ptx.Type) aluFn {
	var table uint8
	for _, o := range []uint8{cmpLess, cmpEqual, cmpGreater, cmpUnordered} {
		a, b := uint64(0), uint64(0)
		switch o {
		case cmpLess:
			b = 1
		case cmpGreater:
			a = 1
		case cmpUnordered:
			if !t.Float() {
				continue
			}
			a = math.Float64bits(math.NaN())
		}
		a, b = cmpProbe(t, a), cmpProbe(t, b)
		if ok, _ := compare(op, t, a, b); ok {
			table |= o
		}
	}
	unsigned := !t.Signed()
	switch op {
	case ptx.CmpLo, ptx.CmpLs, ptx.CmpHi, ptx.CmpHs:
		unsigned = true
	}
	switch {
	case t == ptx.F32:
		return func(r, a, b, _, _ *vec) {
			for l := range r {
				r[l] = uint64(table >> floatOrder(float64(bitsF32(a[l])), float64(bitsF32(b[l]))) & 1)
			}
		}
	case t == ptx.F64:
		return func(r, a, b, _, _ *vec) {
			for l := range r {
				r[l] = uint64(table >> floatOrder(bitsF64(a[l]), bitsF64(b[l])) & 1)
			}
		}
	case t.Float():
		return func(r, a, b, _, _ *vec) {
			for l := range r {
				if ok, _ := compare(op, t, a[l], b[l]); ok {
					r[l] = 1
				} else {
					r[l] = 0
				}
			}
		}
	case unsigned && t.Size() == 4:
		return func(r, a, b, _, _ *vec) {
			for l := range r {
				x, y := uint32(a[l]), uint32(b[l])
				r[l] = uint64(table >> intOrder(x < y, x == y) & 1)
			}
		}
	case t == ptx.S32:
		return func(r, a, b, _, _ *vec) {
			for l := range r {
				x, y := int32(a[l]), int32(b[l])
				r[l] = uint64(table >> intOrder(x < y, x == y) & 1)
			}
		}
	case unsigned:
		return func(r, a, b, _, _ *vec) {
			for l := range r {
				x, y := truncUnsigned(a[l], t), truncUnsigned(b[l], t)
				r[l] = uint64(table >> intOrder(x < y, x == y) & 1)
			}
		}
	}
	return func(r, a, b, _, _ *vec) {
		for l := range r {
			x, y := int64(truncToType(a[l], t)), int64(truncToType(b[l], t))
			r[l] = uint64(table >> intOrder(x < y, x == y) & 1)
		}
	}
}

// cmpProbe turns a probe value (0, 1 or an f64 NaN) into type t's bits.
func cmpProbe(t ptx.Type, v uint64) uint64 {
	switch t {
	case ptx.F16:
		if v == 1 {
			return uint64(F32ToHalf(1))
		}
		if v != 0 {
			return uint64(F32ToHalf(float32(math.NaN())))
		}
	case ptx.F32:
		if v == 1 {
			return f32bits(1)
		}
		if v != 0 {
			return f32bits(float32(math.NaN()))
		}
	case ptx.F64:
		if v == 1 {
			return f64bits(1)
		}
	}
	return v
}

// floatOrder returns the truth-table bit index of comparing x with y.
func floatOrder(x, y float64) uint8 {
	switch {
	case x < y:
		return 0
	case x == y:
		return 1
	case x > y:
		return 2
	}
	return 3
}

func intOrder(lt, eq bool) uint8 {
	switch {
	case lt:
		return 0
	case eq:
		return 1
	}
	return 2
}
