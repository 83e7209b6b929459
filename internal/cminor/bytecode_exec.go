package cminor

import (
	"fmt"
	"math"
	"unsafe"
)

// Execution of lowered bytecode: one flat for/switch dispatch loop over
// a dense []instr, operating on the frame's int64/float64 register
// files. Statement-budget charging, fault text and fault positions are
// bit-identical to the closure backend (and therefore to the walker):
// the step opcodes run the same counter/limit comparison as
// Instance.step, and the checked access opcodes raise the same
// positioned *Diag panics as checkedElem.

// bcFault annotates an internal panic that escaped the bytecode
// dispatch loop with the function whose flat code was executing, so an
// InternalFault's Recovered value names the faulting lowering unit even
// through nested user calls.
type bcFault struct {
	fn    string
	cause any
}

func (b *bcFault) String() string {
	return fmt.Sprintf("bytecode dispatch fault in %s: %v", b.fn, b.cause)
}

// annotateBCFault wraps an unexpected panic value in a *bcFault,
// passing expected program-level fault carriers (and already-annotated
// faults from nested dispatch loops) through unchanged.
func annotateBCFault(bc *bcFunc, r any) any {
	switch r.(type) {
	case *Diag, ctxDone, trialEnd, *bcFault:
		return r
	}
	return &bcFault{fn: bc.name, cause: r}
}

// bcArr resolves an array operand: c >= 0 is a frame slot, c < 0 a
// global slot (^c).
func bcArr(fr *frame, c int32) *Array {
	if c < 0 {
		return fr.ec.g.arrays[^c]
	}
	return fr.arrays[c]
}

// bcElem1 is the checked rank-1 element accessor (closure parity: same
// checks, same fault text, same position).
func bcElem1(fr *frame, in *instr, idx int64) (*Array, int) {
	a := bcArr(fr, in.c)
	file := fr.ec.prog.fname
	if len(a.Dims) != 1 {
		rtPanic(file, in.pos, "array rank %d indexed with 1 subscript", len(a.Dims))
	}
	i := int(idx)
	if uint(i) >= uint(a.Dims[0]) {
		rtPanic(file, in.pos, "index %d out of range [0,%d)", i, a.Dims[0])
	}
	return a, i
}

// bcElem2 is the checked rank-2 element accessor.
func bcElem2(fr *frame, in *instr, i0, i1 int64) (*Array, int) {
	a := bcArr(fr, in.c)
	file := fr.ec.prog.fname
	if len(a.Dims) != 2 {
		rtPanic(file, in.pos, "array rank %d indexed with 2 subscripts", len(a.Dims))
	}
	i := int(i0)
	j := int(i1)
	if uint(i) >= uint(a.Dims[0]) {
		rtPanic(file, in.pos, "index %d out of range [0,%d) in dim 0", i, a.Dims[0])
	}
	if uint(j) >= uint(a.Dims[1]) {
		rtPanic(file, in.pos, "index %d out of range [0,%d) in dim 1", j, a.Dims[1])
	}
	return a, i*a.Dims[1] + j
}

// bcCompound applies one float compound op (division by zero yields
// ±Inf; % is math.Mod — float semantics, like the closure backend's
// compound element stores).
func bcCompound(op uint8, old, v float64) float64 {
	switch op {
	case bcOpAdd:
		return old + v
	case bcOpSub:
		return old - v
	case bcOpMul:
		return old * v
	case bcOpDiv:
		return old / v
	default:
		return math.Mod(old, v)
	}
}

// bcProve is the loop preamble: it validates every opAddr row against
// the live arrays for the induction range [iv, last], writing the
// address registers and data registers the fast body uses. Operands per
// shape (c the array, d its data register, b the address base written):
//
//	bcVecIV   v[iv+imm]
//	bcVecInv  v[ireg[a]]             ireg[b] = the index
//	bcRowIV   A[ireg[a]][iv+imm]     ireg[b] = row*d1
//	bcColIV   A[iv+imm][ireg[a]]     ireg[b] = col + imm*d1, ireg[e] = d1
//	bcDiag    A[iv+imm][iv+a]        ireg[b] = imm*d1 + a,   ireg[e] = d1 + 1
//	bcInvInv  A[ireg[a]][ireg[e]]    ireg[b] = row*d1 + col
//
// A false return leaves some of them written; the safe body reads none.
func bcProve(fr *frame, rows []instr, iv, last int64) bool {
	ireg := fr.ireg
	for i := range rows {
		r := &rows[i]
		rank := 2
		if r.sub <= bcVecInv {
			rank = 1
		}
		a := bcArr(fr, r.c)
		if a == nil || len(a.Dims) != rank {
			return false
		}
		d0, d1 := a.Dims[0], a.Dims[rank-1]
		inv := func(reg int32, dim int) bool { return ireg[reg] >= 0 && ireg[reg] < int64(dim) }
		ok := false
		switch r.sub {
		case bcVecIV:
			ok = affineInRange(iv, last, r.imm, d0)
		case bcVecInv:
			ok = inv(r.a, d0)
			ireg[r.b] = ireg[r.a]
		case bcRowIV:
			ok = inv(r.a, d0) && affineInRange(iv, last, r.imm, d1)
			ireg[r.b] = ireg[r.a] * int64(d1)
		case bcColIV:
			ok = inv(r.a, d1) && affineInRange(iv, last, r.imm, d0)
			ireg[r.b], ireg[r.e] = ireg[r.a]+r.imm*int64(d1), int64(d1)
		case bcDiag:
			ok = affineInRange(iv, last, r.imm, d0) && affineInRange(iv, last, int64(r.a), d1)
			ireg[r.b], ireg[r.e] = r.imm*int64(d1)+int64(r.a), int64(d1)+1
		case bcInvInv:
			ok = inv(r.a, d0) && inv(r.e, d1)
			ireg[r.b] = ireg[r.a]*int64(d1) + ireg[r.e]
		}
		if !ok {
			return false
		}
		fr.dreg[r.d] = a.Data
	}
	return true
}

// bcRunChunk bounds the iterations a run executes between two looks at
// the step limit: how long a cancellation (a dropped limit) goes unseen.
const bcRunChunk = 1024

// bcRunLen is how many iterations beyond the one it was entered for a
// run head may execute: those the loop has left (iv <= last inside a
// body), those whose k steps each — the back edge's two and the body's
// inner ones — the budget still covers, and no more than bcRunChunk.
func (ec *Instance) bcRunLen(iv, last int64, k int32) int {
	n := uint64(last) - uint64(iv)
	if n > bcRunChunk {
		n = bcRunChunk
	}
	lim, steps := ec.limit.Load(), int64(ec.steps)
	if lim <= steps {
		return 0 // spent, or dropped by a cancellation
	}
	return int(min(n, uint64(lim-steps)/uint64(k)))
}

// bcWalk is a run operand resolved at run entry: element i of the walk
// is d[i*s].
type bcWalk struct {
	d []float64
	s int
}

func bcWalkOf(fr *frame, o *instr) bcWalk {
	ireg := fr.ireg
	switch o.sub {
	case bcMode0:
		return bcWalk{fr.dreg[o.c][ireg[o.a]+o.imm:], int(o.d)}
	case bcMode1:
		return bcWalk{fr.dreg[o.c][ireg[o.a]+ireg[o.b]+o.imm:], 1}
	case bcMode2:
		return bcWalk{fr.dreg[o.c][ireg[o.a]*ireg[o.e]+ireg[o.b]:], int(ireg[o.e])}
	default:
		return bcWalk{fr.freg[o.a:], 0}
	}
}

// touches reports whether the first n+1 elements of the walk include the
// one p points at — by address, so that argument arrays which share or
// overlap backing stores are seen for what they are.
func (w bcWalk) touches(p *float64, n int) bool {
	if len(w.d) == 0 {
		return true
	}
	i := (uintptr(unsafe.Pointer(p)) - uintptr(unsafe.Pointer(&w.d[0]))) / unsafe.Sizeof(*p)
	if w.s == 0 {
		return i == 0
	}
	return i <= uintptr(n*w.s) && i%uintptr(w.s) == 0
}

// bcRunMac runs n+1 iterations of T ±= float64(([c·]X)·Y) in source
// order. The explicit conversion forces the product's rounding so Go
// cannot contract the multiply-add into a hardware FMA, which would break
// walker bit-parity. The sign and the coefficient are decided once per
// run, each of their four pairings running its own copy of a loop, and
// the loop is picked by the strides the walks resolved to: a stride-0
// factor no store of the run reaches is read once, and then a unit-stride
// target and source are resliced to their n+1 elements, so Go drops the
// bounds checks.
// None of this reorders anything: every iteration loads, rounds and
// stores in source order, as the instructions the run replaced did.
func bcRunMac(fr *frame, in *instr, rows []instr, n int) {
	t, x, y := bcWalkOf(fr, &rows[0]), bcWalkOf(fr, &rows[1]), bcWalkOf(fr, &rows[2])
	neg, coef := in.sub&bcRunNeg != 0, in.sub&bcRunCoef != 0
	var c float64
	var cx [1]float64
	if coef {
		c = fr.freg[in.d]
		if c != c {
			// The walker's c·X is the NaN c whatever X holds, but the
			// compiler may commute c*p below and let a NaN in X win: run on
			// c·c, that NaN quieted, instead.
			cx[0] = c * c
			x, coef = bcWalk{cx[:], 0}, false
		}
	}
	// A target that stays put is held in a register for the run when
	// neither source walk reads its element: it is stored once, after it.
	held := t.s == 0 && !x.touches(&t.d[0], n) && !y.touches(&t.d[0], n)
	// c·X over a stride-0 X no store of the run reaches is one value.
	if coef && x.s == 0 && !t.touches(&x.d[0], n) {
		cx[0] = c * x.d[0]
		x, coef = bcWalk{cx[:], 0}, false
	}
	switch {
	case held:
		t.d[0] = bcMacHeld(t.d[0], c, x, y, n, coef, neg)
	case t.s == 1 && bcMacUnit(t.d[:n+1], c, x, y, coef, neg):
	default:
		bcMacStrided(t, c, x, y, n, coef, neg)
	}
}

// bcMacHeld runs the n+1 iterations of a held target acc and returns it.
func bcMacHeld(acc, c float64, x, y bcWalk, n int, coef, neg bool) float64 {
	xd, xs, yd, ys := x.d, x.s, y.d, y.s
	switch {
	case !coef && !neg:
		for xi, yi := 0, 0; n >= 0; n, xi, yi = n-1, xi+xs, yi+ys {
			acc = bcAdd(acc, float64(xd[xi]*yd[yi]))
		}
	case !coef:
		for xi, yi := 0, 0; n >= 0; n, xi, yi = n-1, xi+xs, yi+ys {
			acc -= float64(xd[xi] * yd[yi])
		}
	case !neg:
		for xi, yi := 0, 0; n >= 0; n, xi, yi = n-1, xi+xs, yi+ys {
			acc = bcAdd(acc, float64(c*xd[xi]*yd[yi]))
		}
	default:
		for xi, yi := 0, 0; n >= 0; n, xi, yi = n-1, xi+xs, yi+ys {
			acc -= float64(c * xd[xi] * yd[yi])
		}
	}
	return acc
}

// bcMacUnit runs a memory target of unit stride, its n+1 elements td,
// when one source has unit stride and the other is a stride-0 factor td
// does not cover (a coefficient with it is folded in by bcRunMac when it
// can be). It reports false, having run nothing, for any other walks.
func bcMacUnit(td []float64, c float64, x, y bcWalk, coef, neg bool) bool {
	tw := bcWalk{td, 1}
	n := len(td) - 1
	switch {
	case x.s == 0 && !coef && y.s == 1 && !tw.touches(&x.d[0], n):
		xv, yd := x.d[0], y.d[:len(td)]
		if neg {
			for i := range td {
				td[i] -= float64(xv * yd[i])
			}
		} else {
			for i := range td {
				td[i] = bcAdd(td[i], float64(xv*yd[i]))
			}
		}
	case x.s == 1 && y.s == 0 && !tw.touches(&y.d[0], n):
		xd, yv := x.d[:len(td)], y.d[0]
		switch {
		case !coef && !neg:
			for i := range td {
				td[i] = bcAdd(td[i], float64(xd[i]*yv))
			}
		case !coef:
			for i := range td {
				td[i] -= float64(xd[i] * yv)
			}
		case !neg:
			for i := range td {
				td[i] = bcAdd(td[i], float64(c*xd[i]*yv))
			}
		default:
			for i := range td {
				td[i] -= float64(c * xd[i] * yv)
			}
		}
	default:
		return false
	}
	return true
}

// bcAdd is o + v to the bit, o the target element the walker's T + P
// puts on the left. An addition may be commuted, and when Go folds the
// target's load into it it does, so that where both are NaN the sum would
// be v's NaN, not o's. A subtraction is never commuted, and o − (−0 − v)
// is o + v, the NaNs included: −0 − v is −v, signed zeros too, for every
// v but a NaN, which it passes through unchanged.
func bcAdd(o, v float64) float64 {
	return o - (math.Copysign(0, -1) - v)
}

// bcMacStrided runs n+1 iterations over walks of any stride, the target's
// element loaded and stored in every one.
func bcMacStrided(t bcWalk, c float64, x, y bcWalk, n int, coef, neg bool) {
	td, ts, xd, xs, yd, ys := t.d, t.s, x.d, x.s, y.d, y.s
	ti, xi, yi := 0, 0, 0
	switch {
	case !coef && !neg:
		for ; n >= 0; n, ti, xi, yi = n-1, ti+ts, xi+xs, yi+ys {
			td[ti] = bcAdd(td[ti], float64(xd[xi]*yd[yi]))
		}
	case !coef:
		for ; n >= 0; n, ti, xi, yi = n-1, ti+ts, xi+xs, yi+ys {
			td[ti] -= float64(xd[xi] * yd[yi])
		}
	case !neg:
		for ; n >= 0; n, ti, xi, yi = n-1, ti+ts, xi+xs, yi+ys {
			td[ti] = bcAdd(td[ti], float64(c*xd[xi]*yd[yi]))
		}
	default:
		for ; n >= 0; n, ti, xi, yi = n-1, ti+ts, xi+xs, yi+ys {
			td[ti] -= float64(c * xd[xi] * yd[yi])
		}
	}
}

// bcRunSum runs n+1 iterations of T = (X1+…+Xk) scaled, every load and
// the store in their own iteration (seidel2d reads what it just wrote).
func bcRunSum(fr *frame, in *instr, rows []instr, n int) {
	var xs [bcSumMax]bcWalk
	t, k := bcWalkOf(fr, &rows[0]), len(rows)-1
	for j := range xs[:k] {
		xs[j] = bcWalkOf(fr, &rows[j+1])
	}
	var c float64
	if in.sub != bcScaleNone {
		c = fr.freg[in.d]
	}
	if in.sub == bcScaleMulL && c != c {
		// c·sum is the NaN c whatever the sum holds (see bcRunMac).
		for i := 0; i <= n; i++ {
			t.d[i*t.s] = c * c
		}
		return
	}
	for i := 0; i <= n; i++ {
		sum := xs[0].d[i*xs[0].s]
		for j := 1; j < k; j++ {
			sum += xs[j].d[i*xs[j].s]
		}
		t.d[i*t.s] = bcScale(in.sub, sum, c)
	}
}

// bcScale applies a run.sum's scaling (sub) to its sum.
func bcScale(sub uint8, sum, c float64) float64 {
	switch sub {
	case bcScaleMulL:
		return c * sum
	case bcScaleMulR:
		return sum * c
	case bcScaleDiv:
		return sum / c
	}
	return sum
}

// bcRunMap runs n+1 iterations of T = X, in order (the walks may
// overlap). Over unit strides that is a memmove unless the target starts
// inside the source past its first element, where the loop propagates
// what it stores; from a stride-0 source it is a fill, since the only
// value the loop stores is the one that element already holds.
func bcRunMap(fr *frame, rows []instr, n int) {
	t, x := bcWalkOf(fr, &rows[0]), bcWalkOf(fr, &rows[1])
	switch {
	case t.s == 1 && x.s == 1 && (&t.d[0] == &x.d[0] || !x.touches(&t.d[0], n)):
		copy(t.d[:n+1], x.d[:n+1])
	case t.s == 1 && x.s == 0:
		td, v := t.d[:n+1], x.d[0]
		for i := range td {
			td[i] = v
		}
	default:
		for i := 0; i <= n; i++ {
			t.d[i*t.s] = x.d[i*x.s]
		}
	}
}

// execBC runs one bytecode function body in fr.
func execBC(fr *frame, bc *bcFunc) {
	ireg, freg, dreg := fr.ireg, fr.freg, fr.dreg
	for i := range bc.params {
		p := &bc.params[i]
		if p.isInt {
			ireg[p.slot] = fr.scalars[p.slot].I
		} else {
			freg[p.slot] = fr.scalars[p.slot].F
		}
	}
	defer func() {
		if r := recover(); r != nil {
			// Program-level faults (positioned *Diag, budget, ctx) and a
			// trial's end pass through untouched — their text and type are
			// the cross-backend parity contract. Anything else is an
			// internal fault of the lowering: annotate it with the function
			// whose flat code was dispatching, then let the containment
			// boundary in Instance.attempt classify it.
			panic(annotateBCFault(bc, r))
		}
	}()
	ec := fr.ec
	g := ec.g
	file := ec.prog.fname
	code := bc.code
	pc := 0
	for {
		in := &code[pc]
		pc++
		switch in.op {
		case opNop:
		case opStep:
			ec.steps++
			if int64(ec.steps) > ec.limit.Load() {
				panic(ec.faultCause())
			}
		case opStep2:
			ec.step()
			ec.step()
		case opJmp:
			pc = int(in.a)
		case opBrZI:
			if ireg[in.a] == 0 {
				pc = int(in.b)
			}
		case opBrNZI:
			if ireg[in.a] != 0 {
				pc = int(in.b)
			}
		case opBrZF:
			if freg[in.a] == 0 {
				pc = int(in.b)
			}
		case opBrNZF:
			if freg[in.a] != 0 {
				pc = int(in.b)
			}
		case opBrCI:
			x, y := ireg[in.a], ireg[in.b]
			var r bool
			switch in.sub &^ bcNegate {
			case bcEQ:
				r = x == y
			case bcNEQ:
				r = x != y
			case bcLT:
				r = x < y
			case bcGT:
				r = x > y
			case bcLEQ:
				r = x <= y
			default:
				r = x >= y
			}
			if in.sub&bcNegate != 0 {
				r = !r
			}
			if r {
				pc = int(in.c)
			}
		case opBrCF:
			x, y := freg[in.a], freg[in.b]
			var r bool
			switch in.sub &^ bcNegate {
			case bcEQ:
				r = x == y
			case bcNEQ:
				r = x != y
			case bcLT:
				r = x < y
			case bcGT:
				r = x > y
			case bcLEQ:
				r = x <= y
			default:
				r = x >= y
			}
			if in.sub&bcNegate != 0 {
				r = !r
			}
			if r {
				pc = int(in.c)
			}
		case opForInit:
			if in.sub&bcForCharge != 0 {
				ec.step()
				ec.step()
			}
			v, last := ireg[in.d], ireg[in.e]
			ireg[in.a] = v
			if in.sub&bcForStrict != 0 {
				// iv < hi becomes iv <= hi-1; MinInt64 cannot be decremented,
				// and the loop is empty in that case anyway.
				if last == math.MinInt64 {
					pc = int(in.c)
					continue
				}
				last--
			}
			ireg[in.b] = last
			if v > last {
				pc = int(in.c)
			}
		case opLoopNext:
			v := ireg[in.a] + 1
			ireg[in.a] = v
			ec.steps++
			if int64(ec.steps) > ec.limit.Load() {
				panic(ec.faultCause())
			}
			if v <= ireg[in.b] {
				pc = int(in.c)
			}
		case opLoopNext2:
			// Fused back edge: one budget check covers the for statement's
			// per-iteration step and the next body's first-statement step
			// (its opStep at c-1 is skipped). On a fault between the two
			// charges, roll the counter back to the first exceeding value —
			// the exact count the walker reports.
			v := ireg[in.a] + 1
			ireg[in.a] = v
			s0 := ec.steps
			if v <= ireg[in.b] {
				ec.steps = s0 + 2
				if lim := ec.limit.Load(); int64(s0+2) > lim {
					if int64(s0+1) > lim {
						ec.steps = s0 + 1
					}
					panic(ec.faultCause())
				}
				pc = int(in.c)
			} else {
				ec.steps = s0 + 1
				if int64(s0+1) > ec.limit.Load() {
					panic(ec.faultCause())
				}
			}
		case opRetI:
			fr.ret = IntV(ireg[in.a])
			return
		case opRetF:
			fr.ret = FloatV(freg[in.a])
			return
		case opRetZ:
			return
		case opLdcI:
			ireg[in.d] = in.imm
		case opLdcF:
			freg[in.d] = in.fv
		case opMovI:
			ireg[in.d] = ireg[in.a]
		case opMovF:
			freg[in.d] = freg[in.a]
		case opI2F:
			freg[in.d] = float64(ireg[in.a])
		case opF2I:
			ireg[in.d] = int64(freg[in.a])
		case opLdGI:
			ireg[in.d] = g.scalars[in.a].I
		case opLdGF:
			freg[in.d] = g.scalars[in.a].F
		case opStGI:
			g.scalars[in.d] = IntV(ireg[in.a])
		case opStGF:
			g.scalars[in.d] = FloatV(freg[in.a])
		case opAddI:
			ireg[in.d] = ireg[in.a] + ireg[in.b]
		case opSubI:
			ireg[in.d] = ireg[in.a] - ireg[in.b]
		case opMulI:
			ireg[in.d] = ireg[in.a] * ireg[in.b]
		case opDivI:
			b := ireg[in.b]
			if b == 0 {
				rtPanic(file, in.pos, "integer division by zero")
			}
			ireg[in.d] = ireg[in.a] / b
		case opModI:
			b := ireg[in.b]
			if b == 0 {
				rtPanic(file, in.pos, "integer modulo by zero")
			}
			ireg[in.d] = ireg[in.a] % b
		case opNegI:
			ireg[in.d] = -ireg[in.a]
		case opAddcI:
			ireg[in.d] = ireg[in.a] + in.imm
		case opAddF:
			freg[in.d] = freg[in.a] + freg[in.b]
		case opSubF:
			freg[in.d] = freg[in.a] - freg[in.b]
		case opMulF:
			freg[in.d] = freg[in.a] * freg[in.b]
		case opDivF:
			freg[in.d] = freg[in.a] / freg[in.b]
		case opModF:
			freg[in.d] = math.Mod(freg[in.a], freg[in.b])
		case opNegF:
			freg[in.d] = -freg[in.a]
		case opAddcF:
			freg[in.d] = freg[in.a] + in.fv
		case opMath1:
			x := freg[in.a]
			switch in.sub {
			case bcSqrt:
				freg[in.d] = math.Sqrt(x)
			case bcFabs:
				freg[in.d] = math.Abs(x)
			case bcExp:
				freg[in.d] = math.Exp(x)
			case bcLog:
				freg[in.d] = math.Log(x)
			case bcFloor:
				freg[in.d] = math.Floor(x)
			default:
				freg[in.d] = math.Ceil(x)
			}
		case opPow:
			freg[in.d] = math.Pow(freg[in.a], freg[in.b])
		case opNewArr1:
			fr.arrays[in.c] = NewArray(int(ireg[in.a]))
		case opNewArr2:
			fr.arrays[in.c] = NewArray(int(ireg[in.a]), int(ireg[in.b]))
		case opLdE1:
			a, off := bcElem1(fr, in, ireg[in.a])
			freg[in.d] = a.Data[off]
		case opLdE2:
			a, off := bcElem2(fr, in, ireg[in.a], ireg[in.b])
			freg[in.d] = a.Data[off]
		case opStE1:
			a, off := bcElem1(fr, in, ireg[in.a])
			a.Data[off] = freg[in.d]
		case opStE2:
			a, off := bcElem2(fr, in, ireg[in.a], ireg[in.b])
			a.Data[off] = freg[in.d]
		case opCmE1:
			a, off := bcElem1(fr, in, ireg[in.a])
			nv := bcCompound(in.sub, a.Data[off], freg[in.d])
			a.Data[off] = nv
			freg[in.e] = nv
		case opCmE2:
			a, off := bcElem2(fr, in, ireg[in.a], ireg[in.b])
			nv := bcCompound(in.sub, a.Data[off], freg[in.d])
			a.Data[off] = nv
			freg[in.e] = nv
		case opIncE1:
			a, off := bcElem1(fr, in, ireg[in.a])
			old := a.Data[off]
			if in.sub == 1 {
				a.Data[off] = old + 1
			} else {
				a.Data[off] = old - 1
			}
			freg[in.d] = old
		case opIncE2:
			a, off := bcElem2(fr, in, ireg[in.a], ireg[in.b])
			old := a.Data[off]
			if in.sub == 1 {
				a.Data[off] = old + 1
			} else {
				a.Data[off] = old - 1
			}
			freg[in.d] = old
		case opProve:
			if rows := code[pc : pc+int(in.d)]; bcProve(fr, rows, ireg[in.a], ireg[in.b]) {
				pc += len(rows)
			} else {
				pc = int(in.c)
			}
		case opLdU0:
			freg[in.d] = dreg[in.c][ireg[in.a]+in.imm]
		case opLdU1:
			freg[in.d] = dreg[in.c][ireg[in.a]+ireg[in.b]+in.imm]
		case opLdU2:
			freg[in.d] = dreg[in.c][ireg[in.a]*ireg[in.e]+ireg[in.b]]
		case opStU0:
			dreg[in.c][ireg[in.a]+in.imm] = freg[in.d]
		case opStU1:
			dreg[in.c][ireg[in.a]+ireg[in.b]+in.imm] = freg[in.d]
		case opStU2:
			dreg[in.c][ireg[in.a]*ireg[in.e]+ireg[in.b]] = freg[in.d]
		case opCmU0:
			d := dreg[in.c]
			off := ireg[in.a] + in.imm
			d[off] = bcCompound(in.sub, d[off], freg[in.d])
		case opCmU1:
			d := dreg[in.c]
			off := ireg[in.a] + ireg[in.b] + in.imm
			d[off] = bcCompound(in.sub, d[off], freg[in.d])
		case opCmU2:
			d := dreg[in.c]
			off := ireg[in.a]*ireg[in.e] + ireg[in.b]
			d[off] = bcCompound(in.sub, d[off], freg[in.d])
		case opRunMac, opRunSum, opRunMap:
			// This iteration and n more; the opLoopNext2 behind the rows then
			// closes the last of them as it would have closed each.
			n := ec.bcRunLen(ireg[in.a], ireg[in.b], in.e)
			rows := code[pc : pc+int(in.c)]
			switch in.op {
			case opRunMac:
				bcRunMac(fr, in, rows, n)
			case opRunSum:
				bcRunSum(fr, in, rows, n)
			default:
				bcRunMap(fr, rows, n)
			}
			ireg[in.a] += int64(n)
			ec.steps += int(in.e) * n
			pc += len(rows)
		default:
			panic("cminor: internal: unknown bytecode op")
		}
	}
}
