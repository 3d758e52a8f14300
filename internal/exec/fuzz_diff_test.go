package exec

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/device"
	"repro/internal/ptx"
)

// stepForm is one ALU instruction form: its opcode with modifiers and
// types, and how many sources it reads.
type stepForm struct {
	op   string
	nsrc int
}

// stepForms covers every (op, type) pair alu_test.go exercises, every
// pair aluKernel binds a hand-written loop to, and forms the interpreter
// rejects (which must fail identically).
var stepForms = func() []stepForm {
	var fs []stepForm
	add := func(n int, ops ...string) {
		for _, op := range ops {
			fs = append(fs, stepForm{op, n})
		}
	}
	for _, t := range []string{"s16", "u16", "s32", "u32", "b32", "s64", "u64", "f16", "f32", "f64", "pred"} {
		add(2, "add."+t, "sub."+t)
	}
	add(2, "mul.lo.s32", "mul.lo.u32", "mul.lo.s64", "mul.lo.u64", "mul.lo.s16", "mul.s32",
		"mul.hi.s32", "mul.hi.u32", "mul.hi.s64", "mul.hi.u64",
		"mul.wide.s32", "mul.wide.u32", "mul.wide.s16", "mul.rn.f32", "mul.f64", "mul.f16")
	add(3, "mad.lo.s32", "mad.lo.u32", "mad.lo.b32", "mad.lo.s64", "mad.hi.s32", "mad.wide.s32", "mad.wide.u32",
		"mad.rn.f32", "mad.rn.f64", "fma.rn.f32", "fma.rn.f64", "fma.rn.f16", "fma.rn.u32")
	add(2, "div.s32", "div.u32", "div.s64", "div.u64", "div.rn.f32", "div.rn.f64", "div.f16",
		"rem.s32", "rem.u32", "rem.s64", "rem.u64", "rem.s16", "rem.f32", "rem.f64",
		"min.s32", "min.u32", "min.s64", "min.f32", "min.f64", "max.s32", "max.u16", "max.f32", "max.f64", "min.f16")
	add(1, "abs.s32", "abs.s64", "abs.f32", "abs.f64", "abs.f16", "neg.s32", "neg.s64", "neg.f32", "neg.f64", "neg.f16",
		"not.b32", "not.b64", "not.pred", "brev.b32", "brev.b64", "popc.b32", "popc.b64", "clz.b32", "clz.b64",
		"mov.b32", "mov.b64", "mov.f32", "mov.u16", "cvta.to.global.u64")
	for _, f := range []string{"sqrt", "rsqrt", "rcp", "lg2", "ex2", "sin", "cos"} {
		add(1, f+".approx.f32", f+".f64", f+".f16", f+".s32")
	}
	for _, t := range []string{"s16", "u16", "s32", "u32", "b32", "s64", "u64", "f16", "f32", "f64"} {
		for _, c := range []string{"eq", "ne", "lt", "le", "gt", "ge", "lo", "ls", "hi", "hs",
			"equ", "neu", "ltu", "leu", "gtu", "geu", "num", "nan"} {
			add(2, "setp."+c+"."+t)
		}
	}
	add(3, "selp.b32", "selp.b64", "selp.f32", "slct.f32.s32", "slct.s32.f32", "slct.b64.s32",
		"bfe.u32", "bfe.s32", "bfe.u64", "bfe.s64")
	add(4, "bfi.b32", "bfi.b64")
	add(2, "and.b32", "and.b64", "and.pred", "or.b32", "or.pred", "xor.b32", "xor.b64",
		"shl.b32", "shl.b64", "shl.b16", "shr.u32", "shr.s32", "shr.b32", "shr.u64", "shr.s64", "shr.s16")
	for _, c := range []string{
		"cvt.rn.f32.s32", "cvt.rn.f32.u32", "cvt.rn.f32.s64", "cvt.rzi.s32.f32", "cvt.rni.s32.f32",
		"cvt.rmi.s32.f32", "cvt.rpi.u32.f32", "cvt.rzi.u32.f32", "cvt.f64.f32", "cvt.rn.f32.f64",
		"cvt.rn.f16.f32", "cvt.f32.f16", "cvt.rni.f32.f32", "cvt.rzi.f64.f64", "cvt.s32.s16",
		"cvt.u32.u16", "cvt.u64.u32", "cvt.s64.s32", "cvt.u32.u64", "cvt.s16.s32", "cvt.u8.u32",
		"cvt.rzi.s64.f64", "cvt.rn.f16.s32", "cvt.u32",
	} {
		add(1, c)
	}
	return fs
}()

// fuzzLane spreads one fuzz value over the lanes: lane l gets a
// splitmix-style scramble, with a few lanes pinned to edge values.
func fuzzLane(v uint64, l int) uint64 {
	switch l {
	case 0:
		return v
	case 1:
		return 0
	case 2:
		return ^uint64(0)
	case 3:
		return uint64(math.Float32bits(float32(math.NaN())))
	case 4:
		return 1 << 63
	case 5:
		return uint64(uint32(v))
	}
	z := v + uint64(l)*0x9E3779B97F4A7C15
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	z ^= z >> 31
	switch l % 4 {
	case 1:
		return z & 0xFFFF_FFFF
	case 2:
		return z & 0x3F
	}
	return z
}

// fuzzImm formats an immediate for form op from the fuzz value v.
func fuzzImm(op string, v uint64) string {
	switch {
	case strings.HasSuffix(op, ".f64"):
		return fmt.Sprintf("0d%016X", v)
	case strings.HasSuffix(op, ".f32") || strings.HasSuffix(op, ".f16"):
		return fmt.Sprintf("0f%08X", uint32(v))
	}
	return fmt.Sprint(int32(v))
}

// FuzzStepDifferential runs one ALU instruction with fuzzed operands on a
// full warp through both interpreters: sources from registers or
// immediates, a fuzzed guard mask, and each BugSet. The destination
// registers (up to NaN payloads, see nanEqual), errors, StepInfo and
// coverage must agree.
func FuzzStepDifferential(f *testing.F) {
	for i := range stepForms {
		f.Add(uint16(i), uint64(0x3FF0_0000_4049_0FDB), uint64(7), uint64(0xFFFF_FFF9), uint32(0xFFFF_FFFF), uint8(0))
		f.Add(uint16(i), uint64(0xBF80_0000), uint64(0x7FC0_0001), uint64(0x8000_0000_0000_0000), uint32(0x5A5A_F00F), uint8(0x16))
		f.Add(uint16(i), uint64(31), uint64(33), uint64(5), uint32(0x0000_0001), uint8(0x29))
	}
	f.Fuzz(func(t *testing.T, form uint16, a, b, c uint64, mask uint32, sel uint8) {
		fm := stepForms[int(form)%len(stepForms)]
		bugs := []BugSet{{}, {RemU64: true}, {BFESigned: true}, {BreakOp: ptx.OpAdd}}[sel&3]
		vals := []uint64{a, b, c, a ^ b}
		ops := []string{"%d"}
		for i := 0; i < fm.nsrc; i++ {
			if sel>>(2+i)&1 != 0 {
				ops = append(ops, fuzzImm(fm.op, vals[i]))
			} else {
				ops = append(ops, fmt.Sprintf("%%s%d", i))
			}
		}
		src := fmt.Sprintf(`.version 6.0
.target sm_61
.address_size 64
.visible .entry fz()
{
	.reg .b64 %%d, %%s0, %%s1, %%s2, %%s3;
	.reg .pred %%g;
	@%%g %s %s;
	ret;
}
`, fm.op, strings.Join(ops, ", "))
		mod, err := ptx.Parse(src)
		if err != nil {
			t.Skipf("form does not parse: %v", err)
		}
		k := mod.Kernels["fz"]
		run := func(ref bool) (RefStepInfo, []uint64, *Coverage, error) {
			m := NewMachine(Config{Bugs: bugs}, device.NewMemory(), nil)
			g, err := m.NewGrid(k, Dim3{X: 1}, Dim3{X: WarpSize}, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			cta := g.InitCTA(0)
			w := cta.Warps[0]
			for l := 0; l < WarpSize; l++ {
				for i := range vals {
					w.SetReg(k.RegSlot(fmt.Sprintf("%%s%d", i)), l, fuzzLane(vals[i], l+i))
				}
				w.SetReg(k.RegSlot("%d"), l, fuzzLane(c, l+7))
				w.SetReg(k.RegSlot("%g"), l, uint64(mask>>l&1))
			}
			cov := NewCoverage()
			if ref {
				info, err := m.RefStepWarp(cta, w, cov)
				return info, w.Regs, cov, err
			}
			var info StepInfo
			err = m.StepWarpCov(cta, w, cov, &info)
			got := RefStepInfo{
				PC: info.PC, ActiveMask: info.ActiveMask, IsMem: info.IsMem, IsStore: info.IsStore,
				IsAtomic: info.IsAtomic, Space: info.Space, AccSize: info.AccSize, Addrs: info.Addrs,
				Barrier: info.Barrier, WarpDone: info.WarpDone,
			}
			if info.Inst != nil {
				got.Instr = info.Inst.Instr
			}
			return got, w.Regs, cov, err
		}
		infoA, regsA, covA, errA := run(false)
		infoB, regsB, covB, errB := run(true)
		if fmt.Sprint(errA) != fmt.Sprint(errB) {
			t.Fatalf("%s: error: decoded %v, reference %v", src, errA, errB)
		}
		if infoA != infoB {
			t.Fatalf("%s: StepInfo: decoded %+v, reference %+v", src, infoA, infoB)
		}
		for i := range regsA {
			if !nanEqual(regsA[i], regsB[i]) {
				t.Fatalf("%s\nbugs %+v: slot %d lane %d (mask %#x): decoded %#x, reference %#x",
					src, bugs, i/WarpSize, i%WarpSize, mask, regsA[i], regsB[i])
			}
		}
		if covA.Total() != 1 || covA.Count(covA.Keys()[0]) != covB.Count(covA.Keys()[0]) {
			t.Fatalf("%s: coverage differs", src)
		}
	})
}

// nanEqual reports whether two raw register or memory words are equal up
// to the payload and sign of the NaNs in them, read as f64, as two f32 or
// as four f16. IEEE arithmetic on NaN operands returns one of the
// operands' NaNs, and which one Go's compiler picks (it may commute the
// operands of a float add or multiply) depends on register allocation, so
// NaN bits differ between builds of the same interpreter. Every other bit
// pattern must match exactly.
func nanEqual(x, y uint64) bool {
	if x == y || isNaN64(x) && isNaN64(y) {
		return true
	}
	return nanEqual32(uint32(x), uint32(y)) && nanEqual32(uint32(x>>32), uint32(y>>32))
}

func nanEqual32(x, y uint32) bool {
	if x == y || isNaN32(x) && isNaN32(y) {
		return true
	}
	return nanEqual16(uint16(x), uint16(y)) && nanEqual16(uint16(x>>16), uint16(y>>16))
}

func nanEqual16(x, y uint16) bool { return x == y || isNaN16(x) && isNaN16(y) }

func isNaN64(v uint64) bool { return v&0x7FF0_0000_0000_0000 == 0x7FF0_0000_0000_0000 && v<<12 != 0 }
func isNaN32(v uint32) bool { return v&0x7F80_0000 == 0x7F80_0000 && v<<9 != 0 }
func isNaN16(v uint16) bool { return v&0x7C00 == 0x7C00 && v<<6 != 0 }

// NaNEqualBytes compares two byte images word by word with nanEqual
// (little-endian, a short tail compared the same way), exported for the
// differential test.
func NaNEqualBytes(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := 0; i < len(a); i += 8 {
		n := min(8, len(a)-i)
		if !nanEqual(leLoad(a[i:i+n]), leLoad(b[i:i+n])) {
			return false
		}
	}
	return true
}

// NaNEqual is nanEqual, exported for the differential test.
func NaNEqual(x, y uint64) bool { return nanEqual(x, y) }

// retSrc's divergent branch does not reconverge before exit: the taken
// lanes jump back to the not-taken lanes' pending ret and execute it with
// their whole mask, while the not-taken entry still waits at that PC.
const retSrc = `
.version 6.0
.target sm_61
.address_size 64
.visible .entry rets(.param .u64 pOut)
{
	.reg .pred %p<3>;
	.reg .b32 %r<3>;
	.reg .b64 %rd<3>;
	ld.param.u64 %rd1, [pOut];
	mov.u32 %r1, %tid.x;
	setp.lt.u32 %p1, %r1, 16;
	setp.eq.u32 %p2, %r1, %r1;
	@%p1 bra TAKEN;
FALL:
	ret;
TAKEN:
	@%p2 bra FALL;
	mul.wide.u32 %rd2, %r1, 4;
	add.s64 %rd2, %rd1, %rd2;
	st.global.u32 [%rd2], %r1;
	ret;
}
`

// TestControlFlowMatchesReference steps kernels with guarded returns and
// a divergent branch whose two paths meet at the next instruction through
// both interpreters in lockstep: every step's StepInfo and SIMT stack must
// agree.
func TestControlFlowMatchesReference(t *testing.T) {
	for _, tc := range []struct{ src, name string }{{retSrc, "rets"}, {vecAddSrc, "vecadd"}} {
		k := mustKernel(t, tc.src, tc.name)
		var cta [2]*CTA
		var ms [2]*Machine
		for i := range cta {
			ms[i] = NewMachine(Config{}, device.NewMemory(), nil)
			args := make([]byte, k.ParamBytes())
			args[7] = 0x10 // a global address for every pointer parameter
			g, err := ms[i].NewGrid(k, Dim3{X: 1}, Dim3{X: 48}, args, 0)
			if err != nil {
				t.Fatal(err)
			}
			cta[i] = g.InitCTA(0)
		}
		for wi, w := range cta[0].Warps {
			ref := cta[1].Warps[wi]
			for steps := 0; !w.Done && !w.AtBarrier; steps++ {
				var info StepInfo
				errA := ms[0].StepWarpCov(cta[0], w, nil, &info)
				infoB, errB := ms[1].RefStepWarp(cta[1], ref, nil)
				if fmt.Sprint(errA) != fmt.Sprint(errB) {
					t.Fatalf("%s warp %d step %d: error %v vs reference %v", tc.name, wi, steps, errA, errB)
				}
				if (info.Inst == nil) != (infoB.Instr == nil) || info.Inst != nil && info.Inst.Instr != infoB.Instr ||
					info.PC != infoB.PC || info.ActiveMask != infoB.ActiveMask || info.WarpDone != infoB.WarpDone {
					t.Fatalf("%s warp %d step %d: StepInfo %+v vs reference %+v", tc.name, wi, steps, info, infoB)
				}
				if fmt.Sprint(w.Stack) != fmt.Sprint(ref.Stack) || w.Done != ref.Done {
					t.Fatalf("%s warp %d step %d: stack %v vs reference %v", tc.name, wi, steps, w.Stack, ref.Stack)
				}
			}
			if !ref.Done && !ref.AtBarrier {
				t.Fatalf("%s warp %d: reference still running", tc.name, wi)
			}
		}
	}
}
