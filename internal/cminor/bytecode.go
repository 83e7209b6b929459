package cminor

import (
	"fmt"
	"sort"
	"strings"
)

// The bytecode backend (BackendBytecode, "O4") lowers typed, resolved
// functions to a flat register-machine bytecode executed by a single
// dispatch loop (bytecode_exec.go) instead of a closure graph. A frame
// carries two dense register files — int64 and float64 — indexed so
// that scalar slot s lives in ireg[s] (int slots) or freg[s] (double
// slots); temporaries are allocated monotonically above the slot block.
// Lowering (bytecode_lower.go) reuses the static kinds (typecheck.go)
// and the loop optimizer's recognition and
// invariance analysis: counted loops become one set-up instruction, one
// proof instruction and a test-and-branch back edge, proven subscripts
// use unchecked load/store opcodes, the back edge fuses increment, step
// and branch (opLoopNext2), and an innermost loop whose whole body is one
// recognised form runs every iteration the step budget allows in one
// dispatch (opRunMac / opRunSum / opRunMap) — the bytecode's one fusion
// of statement-level work.
//
// Semantics are bit- and step-exact with the walker: every statement
// charges the same step() budget, every fault carries the same
// positioned *Diag text, and loop versioning falls back to a fully
// checked body when a preamble proof fails. A function the lowerer
// cannot prove safe (a call the inliner did not plan, pointer cells,
// rank>2 arrays) simply keeps its closure-compiled body —
// bailing is always semantics-preserving.

// bcOp enumerates the bytecode operations.
type bcOp uint8

const (
	opNop bcOp = iota

	// control flow
	opStep  // charge one statement against the step budget
	opStep2 // charge two statements (counted-loop entry)
	opJmp   // pc = a
	opBrZI  // if ireg[a] == 0: pc = b
	opBrNZI // if ireg[a] != 0: pc = b
	opBrZF  // if freg[a] == 0: pc = b
	opBrNZF // if freg[a] != 0: pc = b
	opBrCI  // if cmp(sub, ireg[a], ireg[b]): pc = c
	opBrCF  // if cmp(sub, freg[a], freg[b]): pc = c
	// opForInit is a counted loop's whole set-up. Under bcForCharge it
	// charges the for statement and its init clause (else an opStep2 did,
	// before a bound's code); under bcForStrict the bound is "<" and the
	// last value one less (MinInt64, which has none, is an empty loop).
	opForInit  // [step×2;] ireg[a] = ireg[d]; ireg[b] = ireg[e] [- 1]; if ireg[a] > ireg[b]: pc = c
	opLoopNext // ireg[a]++; step; if ireg[a] <= ireg[b]: pc = c
	// opLoopNext2 is the fused back edge: it charges the for statement's
	// per-iteration step AND the next iteration's first-statement step in
	// one budget check, then jumps past that statement's opStep. Nothing
	// observable happens between the two charges, so only the fault-time
	// counter could diverge — and the rollback in the exec loop restores
	// the exact walker count when the budget dies between them.
	opLoopNext2 // ireg[a]++; if ≤ ireg[b]: step×2, pc = c; else step
	opRetI      // fr.ret = IntV(ireg[a]); return
	opRetF      // fr.ret = FloatV(freg[a]); return
	opRetZ      // return; fr.ret keeps the declared kind's zero getFrame preset

	// moves and conversions
	opLdcI // ireg[d] = imm
	opLdcF // freg[d] = fv
	opMovI // ireg[d] = ireg[a]
	opMovF // freg[d] = freg[a]
	opI2F  // freg[d] = float64(ireg[a])
	opF2I  // ireg[d] = int64(freg[a])
	opLdGI // ireg[d] = globals[a].I
	opLdGF // freg[d] = globals[a].F
	opStGI // globals[d] = IntV(ireg[a])
	opStGF // globals[d] = FloatV(freg[a])

	// int ALU
	opAddI  // ireg[d] = ireg[a] + ireg[b]
	opSubI  // ireg[d] = ireg[a] - ireg[b]
	opMulI  // ireg[d] = ireg[a] * ireg[b]
	opDivI  // ireg[d] = ireg[a] / ireg[b] (faults on 0)
	opModI  // ireg[d] = ireg[a] % ireg[b] (faults on 0)
	opNegI  // ireg[d] = -ireg[a]
	opAddcI // ireg[d] = ireg[a] + imm

	// float ALU
	opAddF  // freg[d] = freg[a] + freg[b]
	opSubF  // freg[d] = freg[a] - freg[b]
	opMulF  // freg[d] = freg[a] * freg[b]
	opDivF  // freg[d] = freg[a] / freg[b]
	opModF  // freg[d] = math.Mod(freg[a], freg[b])
	opNegF  // freg[d] = -freg[a]
	opAddcF // freg[d] = freg[a] + fv

	// math builtins
	opMath1 // freg[d] = builtin(sub)(freg[a])
	opPow   // freg[d] = math.Pow(freg[a], freg[b])

	// local array declaration
	opNewArr1 // arrays[c] = NewArray(ireg[a])
	opNewArr2 // arrays[c] = NewArray(ireg[a], ireg[b])

	// checked element access (exact closure-backend fault text)
	opLdE1  // freg[d] = arr(c)[ireg[a]]
	opLdE2  // freg[d] = arr(c)[ireg[a]][ireg[b]]
	opStE1  // arr(c)[ireg[a]] = freg[d]
	opStE2  // arr(c)[ireg[a]][ireg[b]] = freg[d]
	opCmE1  // freg[e] = (arr(c)[ireg[a]] op(sub)= freg[d])
	opCmE2  // freg[e] = (arr(c)[ireg[a]][ireg[b]] op(sub)= freg[d])
	opIncE1 // freg[d] = arr(c)[ireg[a]] (then ±1 store; sub=1 inc)
	opIncE2 // freg[d] = arr(c)[ireg[a]][ireg[b]] (then ±1 store; sub=1 inc)

	// The loop preamble: one opProve followed by d opAddr rows, one per
	// classified address of the fast body — operands, never dispatched.
	// opProve validates each against the live array (it exists with the
	// shape's rank; the invariant subscripts and the whole induction range
	// [ireg[a], ireg[b]] are in bounds, overflow-checked), writes the
	// address registers the fast body indexes with, and hoists the array's
	// backing store into a data register, so unchecked accesses index one
	// flat []float64. A failure jumps to the safe body; success falls
	// through the rows into the fast body.
	opProve // every row holds (else pc = c); pc += d
	opAddr  // row: shape sub (bcVecIV…) of arr(c) into dreg[d]; see bcProve

	// Proven (unchecked) element access over a hoisted data register.
	// The addressing mode is baked into the opcode (one dispatch, no
	// mode decode):
	//
	//	*0  ea = ireg[a] + imm
	//	*1  ea = ireg[a] + ireg[b] + imm
	//	*2  ea = ireg[a]*ireg[e] + ireg[b]        (e = row-stride reg; imm folded)
	opLdU0 // freg[d] = dreg[c][ea]
	opLdU1
	opLdU2
	opStU0 // dreg[c][ea] = freg[d]
	opStU1
	opStU2
	opCmU0 // dreg[c][ea] op(sub)= freg[d]
	opCmU1
	opCmU2

	// Run forms. When the body of an innermost counted loop is, after its
	// leading opStep and apart from the steps of a spliced callee's
	// statements, exactly one recognised straight-line form of the plain
	// instructions above, the lowerer (formRun) replaces it with those
	// steps, a run head and c opOpnd rows — the form's target and sources
	// as strided operands, never dispatched — before the usual
	// opLoopNext2. The head executes the iteration it was entered for
	// plus every further one the loop bound (a, b: induction and last
	// registers), the step budget and bcRunChunk allow in a native Go loop
	// (bcRunLen), charges their e steps each (the back edge's two and the
	// inner ones) in one addition, advances the induction register and
	// falls into the unchanged opLoopNext2, which takes the exit, the next
	// chunk and every budget edge with its usual rollback.
	opRunMac // T ±= float64(([freg[d]·]X)·Y): rows T, X, Y; sub bcRunNeg | bcRunCoef
	opRunSum // T = (X1+…+Xk) scaled by freg[d] as sub (bcScale*) says: rows T, X1…Xk
	opRunMap // T = X: rows T, X
	opOpnd   // row: the walk of one operand, addressed in mode sub (bcMode*, bcModeReg)
)

// Addressing modes as classified by the lowerer (selects the opcode
// within a *0/*1/*2 group):
//
//	bcMode0  ea = ireg[a] + imm
//	bcMode1  ea = ireg[a] + ireg[b] + imm
//	bcMode2  ea = ireg[a]*ireg[e] + ireg[b]
//
// A run operand row (opOpnd) adds bcModeReg — float register a itself, a
// walk of stride 0 over the register file — and holds in d the stride of
// a mode-0 address (1 when a is the induction register, else 0); mode 1
// advances by 1 and mode 2 by ireg[e].
const (
	bcMode0 uint8 = iota
	bcMode1
	bcMode2
	bcModeReg
)

// Address shapes a preamble row (opAddr) proves, by which subscripts
// follow the induction variable. Operands per shape are in bcProve.
const (
	bcVecIV  uint8 = iota // v[iv+off]
	bcVecInv              // v[inv]
	bcRowIV               // A[inv][iv+off]
	bcColIV               // A[iv+off][inv]
	bcDiag                // A[iv+off0][iv+off1]
	bcInvInv              // A[inv][inv]
)

// opForInit flags (sub).
const (
	bcForStrict uint8 = 1 << iota // the bound is "<": last = hi - 1
	bcForCharge                   // charge the for statement and its init clause here
)

// opRunMac flags (sub).
const (
	bcRunNeg  uint8 = 1 << iota // T -= …, not T += …
	bcRunCoef                   // X is multiplied by freg[d] first
)

// opRunSum scaling (sub): what happens to the sum before it is stored.
const (
	bcScaleNone uint8 = iota
	bcScaleMulL       // freg[d] * sum
	bcScaleMulR       // sum * freg[d]
	bcScaleDiv        // sum / freg[d]
)

// bcSumMax is the most sources an opRunSum carries (seidel2d's nine).
const bcSumMax = 9

// Comparison codes for opBrCI/opBrCF (in sub). bcNegate inverts the
// result of the original predicate — never a rewritten operator — so
// float NaN semantics match the closure backend's !cond branches.
const (
	bcEQ uint8 = iota
	bcNEQ
	bcLT
	bcGT
	bcLEQ
	bcGEQ

	bcNegate uint8 = 0x80
)

// opMath1 sub codes.
const (
	bcSqrt uint8 = iota
	bcFabs
	bcExp
	bcLog
	bcFloor
	bcCeil
)

// Compound arithmetic codes (opCmU*/opCmE* sub).
const (
	bcOpAdd uint8 = iota
	bcOpSub
	bcOpMul
	bcOpDiv
	bcOpMod
)

// instr is one bytecode instruction (56 bytes). Operand meaning is
// per-opcode (see the bcOp comments); where c is an array reference,
// >= 0 is a local frame array slot and < 0 is global array slot ^c. pos
// is the source position used by runtime faults and the disassembler.
type instr struct {
	op  bcOp
	sub uint8
	a   int32
	b   int32
	c   int32
	d   int32
	e   int32
	imm int64
	fv  float64
	pos Pos
}

// bcParam describes one by-value scalar parameter: the slot/register it
// occupies and which register file. The entry binder (bindArg) has
// already converted the argument to the declared kind, so execBC loads
// it straight from fr.scalars; a by-value parameter is the callee's own
// copy, so nothing is written back.
type bcParam struct {
	slot  int32
	isInt bool
}

// bcFunc is one function lowered to flat bytecode.
type bcFunc struct {
	name   string
	code   []instr
	nI, nF int // register-file sizes (slots + temporaries)
	nD     int // data registers (hoisted array backing stores)
	params []bcParam
}

// bcOpNames is indexed by bcOp for the disassembler.
var bcOpNames = [...]string{
	opNop: "nop", opStep: "step", opStep2: "step2", opJmp: "jmp",
	opBrZI: "brz.i", opBrNZI: "brnz.i", opBrZF: "brz.f", opBrNZF: "brnz.f",
	opBrCI: "brc.i", opBrCF: "brc.f", opForInit: "forinit",
	opLoopNext: "loopnext", opLoopNext2: "loopnext2",
	opRetI: "ret.i", opRetF: "ret.f", opRetZ: "ret",
	opLdcI: "ldc.i", opLdcF: "ldc.f", opMovI: "mov.i", opMovF: "mov.f",
	opI2F: "i2f", opF2I: "f2i", opLdGI: "ldg.i", opLdGF: "ldg.f",
	opStGI: "stg.i", opStGF: "stg.f",
	opAddI: "add.i", opSubI: "sub.i", opMulI: "mul.i", opDivI: "div.i",
	opModI: "mod.i", opNegI: "neg.i", opAddcI: "addc.i",
	opAddF: "add.f", opSubF: "sub.f", opMulF: "mul.f", opDivF: "div.f",
	opModF: "mod.f", opNegF: "neg.f", opAddcF: "addc.f",
	opMath1: "math1", opPow: "pow",
	opNewArr1: "newarr1", opNewArr2: "newarr2",
	opLdE1: "lde1", opLdE2: "lde2", opStE1: "ste1", opStE2: "ste2",
	opCmE1: "cme1", opCmE2: "cme2", opIncE1: "ince1", opIncE2: "ince2",
	opProve: "prove", opAddr: ".addr",
	opLdU0: "ldu0", opLdU1: "ldu1", opLdU2: "ldu2",
	opStU0: "stu0", opStU1: "stu1", opStU2: "stu2",
	opCmU0: "cmu0", opCmU1: "cmu1", opCmU2: "cmu2",
	opRunMac: "run.mac", opRunSum: "run.sum", opRunMap: "run.map", opOpnd: ".opnd",
}

var bcCmpNames = [...]string{"eq", "neq", "lt", "gt", "leq", "geq"}
var bcMathNames = [...]string{"sqrt", "fabs", "exp", "log", "floor", "ceil"}
var bcArithNames = [...]string{"+", "-", "*", "/", "%"}

// Disassemble renders the lowered bytecode of one function of a
// BackendBytecode program — opcode, operands and source position per
// instruction — so codegen changes are reviewable as text, not only as
// benchmark deltas. It errors for other backends, unknown functions,
// and functions where lowering bailed to the closure fallback. It
// lowers p's bodies if nothing has yet (see Compile).
func Disassemble(p *Program, fn string) (string, error) {
	if p.cfg.backend != BackendBytecode {
		return "", fmt.Errorf("cminor: Disassemble: program backend is %s, not bytecode", p.cfg.backend)
	}
	cf := p.lowered().funcs[fn]
	if cf == nil {
		return "", fmt.Errorf("cminor: Disassemble: no function %q", fn)
	}
	if cf.bc == nil {
		return "", fmt.Errorf("cminor: Disassemble: %s bailed to the closure fallback: %s", fn, cf.bail)
	}
	bc := cf.bc
	var sb strings.Builder
	fmt.Fprintf(&sb, "func %s: %d instrs, %d int regs, %d float regs, %d data regs\n",
		bc.name, len(bc.code), bc.nI, bc.nF, bc.nD)
	var head *instr // the opProve or run head whose rows are being printed
	for pc := range bc.code {
		in := &bc.code[pc]
		if in.op != opAddr && in.op != opOpnd {
			head = in
		}
		ops := bcOperands(in, head)
		if in.pos != (Pos{}) {
			fmt.Fprintf(&sb, "%4d  %-10s %-28s ; %s\n", pc, bcOpNames[in.op], ops, in.pos)
		} else {
			line := fmt.Sprintf("%4d  %-10s %s", pc, bcOpNames[in.op], ops)
			sb.WriteString(strings.TrimRight(line, " "))
			sb.WriteByte('\n')
		}
	}
	return sb.String(), nil
}

// bcArrName renders an array operand: a<slot> local, g<slot> global.
func bcArrName(c int32) string {
	if c < 0 {
		return fmt.Sprintf("g%d", ^c)
	}
	return fmt.Sprintf("a%d", c)
}

// bcEA renders the effective-address operand of an unchecked access
// over a hoisted data register (mode baked into the opcode).
func bcEA(in *instr, mode uint8) string {
	s := ""
	switch mode {
	case bcMode0:
		s = fmt.Sprintf("i%d", in.a)
	case bcMode1:
		s = fmt.Sprintf("i%d+i%d", in.a, in.b)
	case bcMode2:
		s = fmt.Sprintf("i%d*i%d+i%d", in.a, in.e, in.b)
	}
	if in.imm != 0 {
		s += fmt.Sprintf("%+d", in.imm)
	}
	return fmt.Sprintf("d%d[%s]", in.c, s)
}

// bcOperands renders one instruction's operands symbolically (iN/fN/dN
// are int/float/data registers, aN/gN arrays, @N a jump target pc). head
// is the instruction an operand row belongs to.
func bcOperands(in, head *instr) string {
	switch in.op {
	case opNop, opStep, opStep2, opRetZ:
		return ""
	case opJmp:
		return fmt.Sprintf("@%d", in.a)
	case opBrZI, opBrNZI:
		return fmt.Sprintf("i%d @%d", in.a, in.b)
	case opBrZF, opBrNZF:
		return fmt.Sprintf("f%d @%d", in.a, in.b)
	case opBrCI, opBrCF:
		r := "i"
		if in.op == opBrCF {
			r = "f"
		}
		cmp := bcCmpNames[in.sub&^bcNegate]
		if in.sub&bcNegate != 0 {
			cmp = "!" + cmp
		}
		return fmt.Sprintf("%s %s%d %s%d @%d", cmp, r, in.a, r, in.b, in.c)
	case opForInit:
		s := fmt.Sprintf("i%d=i%d i%d=i%d", in.a, in.d, in.b, in.e)
		if in.sub&bcForStrict != 0 {
			s += "-1"
		}
		if in.sub&bcForCharge != 0 {
			s += " step2"
		}
		return s + fmt.Sprintf(" else @%d", in.c)
	case opLoopNext, opLoopNext2:
		return fmt.Sprintf("i%d<=i%d @%d", in.a, in.b, in.c)
	case opRetI:
		return fmt.Sprintf("i%d", in.a)
	case opRetF:
		return fmt.Sprintf("f%d", in.a)
	case opLdcI:
		return fmt.Sprintf("i%d = %d", in.d, in.imm)
	case opLdcF:
		return fmt.Sprintf("f%d = %v", in.d, in.fv)
	case opMovI, opNegI, opF2I:
		return fmt.Sprintf("i%d i%d", in.d, in.a)
	case opMovF, opNegF, opI2F:
		return fmt.Sprintf("f%d f%d", in.d, in.a)
	case opLdGI:
		return fmt.Sprintf("i%d gs%d", in.d, in.a)
	case opLdGF:
		return fmt.Sprintf("f%d gs%d", in.d, in.a)
	case opStGI:
		return fmt.Sprintf("gs%d i%d", in.d, in.a)
	case opStGF:
		return fmt.Sprintf("gs%d f%d", in.d, in.a)
	case opAddI, opSubI, opMulI, opDivI, opModI:
		return fmt.Sprintf("i%d i%d i%d", in.d, in.a, in.b)
	case opAddcI:
		return fmt.Sprintf("i%d i%d %+d", in.d, in.a, in.imm)
	case opAddF, opSubF, opMulF, opDivF, opModF:
		return fmt.Sprintf("f%d f%d f%d", in.d, in.a, in.b)
	case opAddcF:
		return fmt.Sprintf("f%d f%d %+v", in.d, in.a, in.fv)
	case opMath1:
		return fmt.Sprintf("%s f%d f%d", bcMathNames[in.sub], in.d, in.a)
	case opPow:
		return fmt.Sprintf("f%d f%d f%d", in.d, in.a, in.b)
	case opNewArr1:
		return fmt.Sprintf("%s [i%d]", bcArrName(in.c), in.a)
	case opNewArr2:
		return fmt.Sprintf("%s [i%d][i%d]", bcArrName(in.c), in.a, in.b)
	case opLdE1:
		return fmt.Sprintf("f%d %s[i%d]", in.d, bcArrName(in.c), in.a)
	case opLdE2:
		return fmt.Sprintf("f%d %s[i%d][i%d]", in.d, bcArrName(in.c), in.a, in.b)
	case opStE1:
		return fmt.Sprintf("%s[i%d] f%d", bcArrName(in.c), in.a, in.d)
	case opStE2:
		return fmt.Sprintf("%s[i%d][i%d] f%d", bcArrName(in.c), in.a, in.b, in.d)
	case opCmE1:
		return fmt.Sprintf("f%d %s[i%d] %s= f%d", in.e, bcArrName(in.c), in.a, bcArithNames[in.sub], in.d)
	case opCmE2:
		return fmt.Sprintf("f%d %s[i%d][i%d] %s= f%d", in.e, bcArrName(in.c), in.a, in.b, bcArithNames[in.sub], in.d)
	case opIncE1:
		return fmt.Sprintf("f%d %s[i%d] sub=%d", in.d, bcArrName(in.c), in.a, in.sub)
	case opIncE2:
		return fmt.Sprintf("f%d %s[i%d][i%d] sub=%d", in.d, bcArrName(in.c), in.a, in.b, in.sub)
	case opProve:
		return fmt.Sprintf("i%d..i%d rows=%d else @%d", in.a, in.b, in.d, in.c)
	case opAddr:
		// The proven subscripts, then the registers the row writes: the
		// address base and, where the address walks rows, their stride.
		arr, iv := bcArrName(in.c), head.a
		switch in.sub {
		case bcVecIV:
			return fmt.Sprintf("d%d = %s[i%d%+d]", in.d, arr, iv, in.imm)
		case bcVecInv:
			return fmt.Sprintf("d%d = %s[i%d] -> i%d", in.d, arr, in.a, in.b)
		case bcRowIV:
			return fmt.Sprintf("d%d = %s[i%d][i%d%+d] -> i%d", in.d, arr, in.a, iv, in.imm, in.b)
		case bcColIV:
			return fmt.Sprintf("d%d = %s[i%d%+d][i%d] -> i%d stride i%d", in.d, arr, iv, in.imm, in.a, in.b, in.e)
		case bcDiag:
			return fmt.Sprintf("d%d = %s[i%d%+d][i%d%+d] -> i%d stride i%d", in.d, arr, iv, in.imm, iv, in.a, in.b, in.e)
		default:
			return fmt.Sprintf("d%d = %s[i%d][i%d] -> i%d", in.d, arr, in.a, in.e, in.b)
		}
	case opLdU0, opLdU1, opLdU2:
		return fmt.Sprintf("f%d %s", in.d, bcEA(in, uint8(in.op-opLdU0)))
	case opStU0, opStU1, opStU2:
		return fmt.Sprintf("%s f%d", bcEA(in, uint8(in.op-opStU0)), in.d)
	case opCmU0, opCmU1, opCmU2:
		return fmt.Sprintf("%s %s= f%d", bcEA(in, uint8(in.op-opCmU0)), bcArithNames[in.sub], in.d)
	// A run head prints its loop and its form over the rows that follow
	// (t the target, x… the sources); each row prints where its walk
	// starts and how far it moves per iteration.
	case opRunMac:
		sign, x := "+", "x"
		if in.sub&bcRunNeg != 0 {
			sign = "-"
		}
		if in.sub&bcRunCoef != 0 {
			x = fmt.Sprintf("f%d*x", in.d)
		}
		return fmt.Sprintf("i%d<=i%d t %s= %s*y", in.a, in.b, sign, x) + bcRunK(in)
	case opRunSum:
		sum := fmt.Sprintf("(x1+..+x%d)", in.c-1)
		switch in.sub {
		case bcScaleMulL:
			sum = fmt.Sprintf("f%d*%s", in.d, sum)
		case bcScaleMulR:
			sum = fmt.Sprintf("%s*f%d", sum, in.d)
		case bcScaleDiv:
			sum = fmt.Sprintf("%s/f%d", sum, in.d)
		}
		return fmt.Sprintf("i%d<=i%d t = %s", in.a, in.b, sum) + bcRunK(in)
	case opRunMap:
		return fmt.Sprintf("i%d<=i%d t = x", in.a, in.b) + bcRunK(in)
	case opOpnd:
		switch in.sub {
		case bcModeReg:
			return fmt.Sprintf("f%d stride 0", in.a)
		case bcMode2:
			return fmt.Sprintf("%s stride i%d", bcEA(in, bcMode2), in.e)
		case bcMode1:
			return bcEA(in, bcMode1) + " stride 1"
		default:
			return fmt.Sprintf("%s stride %d", bcEA(in, bcMode0), in.d)
		}
	}
	return "?"
}

// bcRunK renders a run head's steps per iteration where a spliced
// body's inner steps make them more than the back edge's two.
func bcRunK(in *instr) string {
	if in.e == 2 {
		return ""
	}
	return fmt.Sprintf(" k=%d", in.e)
}

// BytecodeFuncs reports which functions of a BackendBytecode program
// lowered to flat bytecode (the rest run their closure fallback),
// sorted by name. Introspection for tests and tooling; like
// Disassemble, it lowers p's bodies if nothing has yet.
func BytecodeFuncs(p *Program) []string {
	var out []string
	for name, cf := range p.lowered().funcs {
		if cf.bc != nil {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}
