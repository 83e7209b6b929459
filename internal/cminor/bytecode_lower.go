package cminor

import (
	"fmt"
	"math"
	"slices"
	"sync"
)

// Lowering of typed, resolved functions to flat bytecode (see
// bytecode.go for the ISA). The lowerer is a one-pass AST walk that
// mirrors the closure compiler's semantics statement for statement:
// the same step-budget charges, the same evaluation order, the same
// positioned faults. Every expression has a static kind (typecheck.go),
// so each lowers to int or float registers. Anything it cannot lower
// with those guarantees — a call the O3 inliner did not plan, pointer
// cells, rank>2 arrays — bails by panicking a *bcBail that names the
// reason and the position, and the function keeps its closure-compiled
// body.
//
// A planned call to a leaf is spliced in place (spliceCall), reusing
// the inliner's plan (inline.go): the callee's slots are relocated into
// the caller's frame, its body is lowered with that relocation active,
// and its returns write a result register. Nothing marks the splice at
// run time, so a spliced body is a run form like any other.
//
// Scalar slot s lives in ireg[s] or freg[s] according to its declared
// kind; the slot block covers the caller's slots and every splice's.
// Temporaries are allocated monotonically above it and never reused —
// a value joined from branches (a conditional's, a multi-return
// splice's result) is written once on each path — so a register read
// always observes the value its producing instruction computed. Where the closure backend captures an operand's
// value before a later subexpression may overwrite it, the lowerer
// copies slot registers into temporaries (protectI / protectF) to
// preserve left-to-right capture semantics.
//
// Counted loops reuse the loop optimizer's recognition (countedLoop's
// shape checks, analyzeLoopBody, invariant, ivAffine) and lower to a
// two-version body: a side-effect-free preamble (opProve and its rows)
// validates every classified subscript against the live array
// dimensions, falling into the fast body (unchecked loads/stores, run
// forms) on success and jumping to the fully-checked safe body —
// bit-exact with the unoptimized pipeline, faults included — on failure.

// bcBail is the panic sentinel lowerBCFunc recovers: this function
// cannot be lowered, keep the closure fallback. Disassemble reports it.
type bcBail struct {
	why  bcBailReason
	pos  Pos
	call string // bcBailCall: the callee and why it was not spliced
}

// bcBailReason classifies why a function keeps its closure body.
type bcBailReason uint8

const (
	bcBailCells bcBailReason = iota // a pointer cell in the function
	bcBailCall                      // a user call with no splice planned
	bcBailParam                     // a spliced callee takes an array or pointer
	bcBailRank                      // an array of rank above 2
	bcBailStmt                      // a statement with no lowering
	bcBailExpr                      // an expression with no lowering
	bcBailOp                        // an operator or builtin with no lowering
	bcBailArray                     // an element access whose root is no array
)

var bcBailText = [...]string{
	bcBailCells: "pointer cells",
	bcBailCall:  "call to ",
	bcBailParam: "array or pointer parameter",
	bcBailRank:  "array rank above 2",
	bcBailStmt:  "unsupported statement",
	bcBailExpr:  "unsupported expression",
	bcBailOp:    "unsupported operator",
	bcBailArray: "not an array",
}

func (b *bcBail) String() string {
	return fmt.Sprintf("%s%s at %s", bcBailText[b.why], b.call, b.pos)
}

// bcMaxLoopDepth bounds counted-loop versioning: each level emits its
// body twice (fast + safe), so code size grows as 2^depth. Deeper
// levels lower as generic loops with checked accesses — step counts
// are identical either way, so the cap is semantics-neutral.
const bcMaxLoopDepth = 4

// bcPatch is a forward reference from an emitted instruction operand
// to a not-yet-bound label.
type bcPatch struct {
	at    int
	field uint8 // 0=a, 1=b, 2=c
	lab   int
}

// bcLoop is one active counted-loop context during lowering.
type bcLoop struct {
	lc        *loopCtx
	ivReg     int32
	lastReg   int32
	fast      bool      // emitting the fast (proven) body version
	proofs    []bcProof // one per classified address of the fast body
	addrCache map[bcAddrKey]bcAddr
}

// bcAddrKey caches classified addresses whose invariant subscripts are
// plain scalar variables: two occurrences with the same (array, slot,
// offset) provably address the same element every iteration, so they
// share one register set and one proof — and, crucially, compare equal,
// which is what lets formMac see that "x[i] = x[i] + a*b" loads and
// stores one element.
type bcAddrKey struct {
	shape uint8 // bcVecInv, bcRowIV or bcColIV
	arr   int32
	kind  VarKind
	slot  int
	off   int64
}

// bcProof is one row of a loop's preamble in the making: the preamble
// first evaluates the address's invariant subscripts into row.a and row.e.
type bcProof struct {
	row      instr
	sx0, sx1 Expr
}

// dataReg returns the data register array arr's backing store is
// hoisted into for this loop (every row over arr writes it).
func (lp *bcLoop) dataReg(bl *bcLower, arr int32) int32 {
	for i := range lp.proofs {
		if lp.proofs[i].row.c == arr {
			return lp.proofs[i].row.d
		}
	}
	return bl.newD()
}

// bcAddr is a classified unchecked effective address over a hoisted
// data register.
type bcAddr struct {
	mode uint8
	a    int32
	b    int32
	e    int32
	imm  int64
	ds   int32
}

// bcLower lowers one function. Its buffers are scratch: a lowering
// borrows a lowerer from bcLowerFree and returns it emptied, so code,
// labels, patches and constants grow in buffers earlier lowerings grew,
// and finish copies the code out once, at its exact size.
type bcLower struct {
	ca      compiler  // analysis-only compiler (refOf, kinds, loop facts, the inlining plan)
	nSlots  int       // registers below this are slots, above it temporaries
	splice  *bcSplice // the call being spliced, nil outside one
	code    []instr
	nI, nF  int
	nD      int
	labels  []int
	patches []bcPatch
	loops   []*bcLoop
	// Constant pool: ldc instructions hoisted to function entry so a
	// literal inside a hot loop costs zero dispatches per iteration.
	// finish() places them in front of the code and shifts every offset.
	consts  []instr
	constIs map[int64]int32
	constFs map[uint64]int32
}

// bcLowerFree is the process-wide free list of lowerers, kept as
// snapshotFree keeps snapshots: a mutex and a slice, holding at most as
// many lowerers as lowerings have ever run at once. Not a sync.Pool: a
// GC empties one, and the next lowering would grow its buffers again.
var bcLowerFree struct {
	mu   sync.Mutex
	list []*bcLower
}

// borrowLower takes a lowerer off the free list, or makes one.
func borrowLower() *bcLower {
	bcLowerFree.mu.Lock()
	defer bcLowerFree.mu.Unlock()
	n := len(bcLowerFree.list)
	if n == 0 {
		return &bcLower{constIs: map[int64]int32{}, constFs: map[uint64]int32{}}
	}
	bl := bcLowerFree.list[n-1]
	bcLowerFree.list = bcLowerFree.list[:n-1]
	return bl
}

// release empties bl, keeping its buffers' capacity, and returns it to
// the free list. It drops what bl referred to first, so a free lowerer
// keeps no program alive.
func (bl *bcLower) release() {
	clear(bl.loops[:cap(bl.loops)])
	clear(bl.constIs)
	clear(bl.constFs)
	*bl = bcLower{code: bl.code[:0], labels: bl.labels[:0], patches: bl.patches[:0],
		loops: bl.loops[:0], consts: bl.consts[:0], constIs: bl.constIs, constFs: bl.constFs}
	bcLowerFree.mu.Lock()
	bcLowerFree.list = append(bcLowerFree.list, bl)
	bcLowerFree.mu.Unlock()
}

// lowerBCFunc lowers one function to bytecode, splicing the call sites
// plan (nil: none) inlines, or returns why it must keep its closure
// fallback.
func lowerBCFunc(p *Program, name string, cf *compiledFunc, plan *inlinePlan) (bc *bcFunc, bail *bcBail) {
	fi := cf.info
	if fi.NumCells > 0 {
		return nil, &bcBail{why: bcBailCells, pos: fi.Decl.P}
	}
	nSlots := fi.NumScalars
	if plan != nil {
		nSlots = plan.numScalars
	}
	bl := borrowLower()
	defer bl.release()
	bl.ca = compiler{prog: p, opt: O2, plan: plan, ret: fi.Decl.Ret.Kind}
	bl.nSlots, bl.nI, bl.nF = nSlots, nSlots, nSlots
	defer func() {
		if r := recover(); r != nil {
			if b, ok := r.(*bcBail); ok {
				bc, bail = nil, b
				return
			}
			panic(r)
		}
	}()
	// The function body is a block executed without its own step charge
	// (matching compiledFunc.body = compiler.block(Body)). Falling off its
	// end returns the zero getFrame preset.
	for _, s := range fi.Decl.Body.Stmts {
		bl.stmt(s)
	}
	bl.emit(instr{op: opRetZ})
	code := bl.finish()
	params := make([]bcParam, 0, len(fi.Params))
	for _, pr := range fi.Params {
		if pr.Kind != VarScalar {
			continue
		}
		params = append(params, bcParam{
			slot:  int32(pr.Slot),
			isInt: pr.Base == Int,
		})
	}
	return &bcFunc{name: name, code: code, nI: bl.nI, nF: bl.nF, nD: bl.nD, params: params}, nil
}

// ---- emission helpers ----

func (bl *bcLower) bail(why bcBailReason, p Pos) { panic(&bcBail{why: why, pos: p}) }

func (bl *bcLower) emit(in instr) int {
	bl.code = append(bl.code, in)
	return len(bl.code) - 1
}

func (bl *bcLower) newI() int32 { r := bl.nI; bl.nI++; return int32(r) }
func (bl *bcLower) newF() int32 { r := bl.nF; bl.nF++; return int32(r) }
func (bl *bcLower) newD() int32 { r := bl.nD; bl.nD++; return int32(r) }

// constI returns a register holding the int constant v, materialized
// once in the function-entry constant pool.
func (bl *bcLower) constI(v int64) int32 {
	if r, ok := bl.constIs[v]; ok {
		return r
	}
	r := bl.newI()
	bl.consts = append(bl.consts, instr{op: opLdcI, d: r, imm: v})
	bl.constIs[v] = r
	return r
}

// constF is constI for float constants (keyed by bit pattern, so -0.0
// and NaN payloads stay distinct).
func (bl *bcLower) constF(v float64) int32 {
	key := math.Float64bits(v)
	if r, ok := bl.constFs[key]; ok {
		return r
	}
	r := bl.newF()
	bl.consts = append(bl.consts, instr{op: opLdcF, d: r, fv: v})
	bl.constFs[key] = r
	return r
}

func (bl *bcLower) newLabel() int {
	bl.labels = append(bl.labels, -1)
	return len(bl.labels) - 1
}

func (bl *bcLower) bind(lab int) { bl.labels[lab] = len(bl.code) }

func (bl *bcLower) patch(at int, field uint8, lab int) {
	bl.patches = append(bl.patches, bcPatch{at: at, field: field, lab: lab})
}

func (bl *bcLower) jmp(lab int) { bl.patch(bl.emit(instr{op: opJmp}), 0, lab) }

func (bl *bcLower) step(p Pos) { bl.emit(instr{op: opStep, pos: p}) }

// bcMark is a position in everything the lowerer appends to.
type bcMark struct{ code, labels, patches int }

func (bl *bcLower) mark() bcMark { return bcMark{len(bl.code), len(bl.labels), len(bl.patches)} }

// swapBack exchanges the code emitted from a to b with the code emitted
// since, taking along the labels and patches created with each: a
// counted loop's fast body is lowered before its preamble is known but
// laid out behind it.
func (bl *bcLower) swapBack(a, b bcMark) {
	end := bl.mark()
	seg := bl.code[a.code:]
	slices.Reverse(seg[:b.code-a.code])
	slices.Reverse(seg[b.code-a.code:])
	slices.Reverse(seg)
	move := func(from, to bcMark, by int) {
		for i := from.labels; i < to.labels; i++ {
			if bl.labels[i] >= 0 {
				bl.labels[i] += by
			}
		}
		for i := from.patches; i < to.patches; i++ {
			bl.patches[i].at += by
		}
	}
	move(a, b, end.code-b.code)
	move(b, end, a.code-b.code)
}

// finish returns the function's code: the constant pool, then the code
// emitted, with every label reference patched — one allocation, at the
// exact size.
func (bl *bcLower) finish() []instr {
	n := len(bl.consts)
	code := make([]instr, n+len(bl.code))
	copy(code, bl.consts)
	copy(code[n:], bl.code)
	for _, pt := range bl.patches {
		t := bl.labels[pt.lab]
		if t < 0 {
			panic("cminor: internal: unbound bytecode label")
		}
		t += n
		in := &code[pt.at+n]
		switch pt.field {
		case 0:
			in.a = int32(t)
		case 1:
			in.b = int32(t)
		default:
			in.c = int32(t)
		}
	}
	return code
}

func (bl *bcLower) innermost() *bcLoop {
	if len(bl.loops) == 0 {
		return nil
	}
	return bl.loops[len(bl.loops)-1]
}

// protectI copies a scalar-slot register to a temporary when a later
// sibling expression could overwrite the slot before the captured
// value is consumed (left-to-right evaluation parity). Temporaries are
// single-assignment and need no protection.
func (bl *bcLower) protectI(r int32, later ...Expr) int32 {
	if bl.isTemp(r) || !exprWritesAny(later...) {
		return r
	}
	t := bl.newI()
	bl.emit(instr{op: opMovI, d: t, a: r})
	return t
}

func (bl *bcLower) protectF(r int32, later ...Expr) int32 {
	if bl.isTemp(r) || !exprWritesAny(later...) {
		return r
	}
	t := bl.newF()
	bl.emit(instr{op: opMovF, d: t, a: r})
	return t
}

// exprWritesAny reports whether any of the expressions contains an
// assignment or ++/--. A spliced call's arguments are walked, its
// callee's body is not: a leaf callee writes only its own relocated
// slots and globals, and no register a caller protects holds either (a
// global is read into a temporary).
func exprWritesAny(es ...Expr) bool {
	for _, e := range es {
		if e == nil {
			continue
		}
		w := false
		Walk(e, func(n Node) bool {
			switch n.(type) {
			case *AssignExpr, *IncDecExpr:
				w = true
				return false
			}
			return true
		})
		if w {
			return true
		}
	}
	return false
}

// iArith builds an int ALU instruction; div/mod carry the fault
// position.
func (bl *bcLower) iArith(base TokenKind, d, a, b int32, p Pos) instr {
	switch base {
	case PLUS:
		return instr{op: opAddI, d: d, a: a, b: b}
	case MINUS:
		return instr{op: opSubI, d: d, a: a, b: b}
	case STAR:
		return instr{op: opMulI, d: d, a: a, b: b}
	case SLASH:
		return instr{op: opDivI, d: d, a: a, b: b, pos: p}
	case PERCENT:
		return instr{op: opModI, d: d, a: a, b: b, pos: p}
	}
	bl.bail(bcBailOp, p)
	return instr{}
}

func (bl *bcLower) fArith(base TokenKind, d, a, b int32, p Pos) instr {
	switch base {
	case PLUS:
		return instr{op: opAddF, d: d, a: a, b: b}
	case MINUS:
		return instr{op: opSubF, d: d, a: a, b: b}
	case STAR:
		return instr{op: opMulF, d: d, a: a, b: b}
	case SLASH:
		return instr{op: opDivF, d: d, a: a, b: b}
	case PERCENT:
		return instr{op: opModF, d: d, a: a, b: b}
	}
	bl.bail(bcBailOp, p)
	return instr{}
}

func bcArithCode(base TokenKind) uint8 {
	switch base {
	case PLUS:
		return bcOpAdd
	case MINUS:
		return bcOpSub
	case STAR:
		return bcOpMul
	case SLASH:
		return bcOpDiv
	default:
		return bcOpMod
	}
}

// ---- statements ----

func (bl *bcLower) stmt(s Stmt) {
	switch s := s.(type) {
	case *Block:
		bl.step(s.P)
		for _, st := range s.Stmts {
			bl.stmt(st)
		}
	case *DeclStmt:
		bl.declStmt(s)
	case *ExprStmt:
		bl.step(s.P)
		bl.exprVoid(s.X)
	case *ForStmt:
		bl.forStmt(s)
	case *WhileStmt:
		bl.step(s.P)
		head := bl.newLabel()
		end := bl.newLabel()
		bl.bind(head)
		bl.branchBool(s.Cond, end, false)
		for _, st := range s.Body.Stmts {
			bl.stmt(st)
		}
		bl.step(s.P)
		bl.jmp(head)
		bl.bind(end)
	case *IfStmt:
		bl.step(s.P)
		if s.Else == nil {
			end := bl.newLabel()
			bl.branchBool(s.Cond, end, false)
			for _, st := range s.Then.Stmts {
				bl.stmt(st)
			}
			bl.bind(end)
			return
		}
		els := bl.newLabel()
		end := bl.newLabel()
		bl.branchBool(s.Cond, els, false)
		for _, st := range s.Then.Stmts {
			bl.stmt(st)
		}
		bl.jmp(end)
		bl.bind(els)
		bl.stmt(s.Else)
		bl.bind(end)
	case *ReturnStmt:
		bl.step(s.P)
		if bl.splice != nil {
			bl.spliceReturn(s)
			return
		}
		// The value converts to the declared return kind; a bare return
		// keeps the zero getFrame preset.
		switch {
		case s.X == nil:
			bl.emit(instr{op: opRetZ})
		case bl.ca.ret == Int:
			bl.emit(instr{op: opRetI, a: bl.asI(s.X)})
		default:
			bl.emit(instr{op: opRetF, a: bl.asF(s.X)})
		}
	case *PragmaStmt:
		bl.step(s.P)
	default:
		bl.bail(bcBailStmt, s.Pos())
	}
}

func (bl *bcLower) declStmt(s *DeclStmt) {
	bl.step(s.P)
	ref := bl.ca.declRef(s)
	if s.Type.IsArray() {
		if ref.Kind != VarArray || len(s.Type.Dims) > 2 {
			bl.bail(bcBailRank, s.P)
		}
		slot := int32(ref.Slot)
		dims := bl.lowerSubs(s.Type.Dims)
		if len(s.Type.Dims) == 1 {
			bl.emit(instr{op: opNewArr1, a: dims[0], c: slot})
		} else {
			bl.emit(instr{op: opNewArr2, a: dims[0], b: dims[1], c: slot})
		}
		return
	}
	if ref.Kind != VarScalar {
		bl.bail(bcBailCells, s.P)
	}
	slot := int32(ref.Slot)
	// Declarations normalize to the declared kind (the closure backend's
	// C initialisation conversion).
	if s.Type.Kind == Int {
		if s.Init == nil {
			bl.emit(instr{op: opLdcI, d: slot})
			return
		}
		r := bl.asI(s.Init)
		if r != slot {
			bl.emit(instr{op: opMovI, d: slot, a: r})
		}
		return
	}
	if s.Init == nil {
		bl.emit(instr{op: opLdcF, d: slot})
		return
	}
	r := bl.asF(s.Init)
	if r != slot {
		bl.emit(instr{op: opMovF, d: slot, a: r})
	}
}

func (bl *bcLower) forStmt(s *ForStmt) {
	if bl.countedFor(s) {
		return
	}
	bl.step(s.P)
	if s.Init != nil {
		bl.stmt(s.Init)
	}
	head := bl.newLabel()
	end := bl.newLabel()
	bl.bind(head)
	if s.Cond != nil {
		bl.branchBool(s.Cond, end, false)
	}
	for _, st := range s.Body.Stmts {
		bl.stmt(st)
	}
	if s.Post != nil {
		bl.exprVoid(s.Post)
	}
	bl.step(s.P)
	bl.jmp(head)
	bl.bind(end)
}

// countedFor recognizes the counted-loop shape (compiler.countedShape,
// shared with the closure lowerer) and emits the versioned loop on
// success.
func (bl *bcLower) countedFor(s *ForStmt) bool {
	if len(bl.loops) >= bcMaxLoopDepth {
		return false
	}
	ivRef, lo, hi, strict, lc, ok := bl.ca.countedShape(s)
	if !ok {
		return false
	}
	bl.emitCountedLoop(s, ivRef, lo, hi, strict, lc)
	return true
}

// emitCountedLoop lowers a recognized counted loop. Step parity with
// the closure backend (and walker): opForInit (or the opStep2 in front
// of it) charges the for statement and its init clause; opLoopNext
// charges one step per iteration after incrementing the induction
// register — the exact counter state the closure's fr.ec.step()
// sequence produces, fault-time values included.
//
// Layout, so that the proven path through a loop takes no jump:
//
//	forinit → exit | preamble → safe | fast body, back edge | jmp exit | safe body, back edge | exit:
//
// A loop whose fast body classified no access has no preamble and no
// second body: its one body is already fully checked.
func (bl *bcLower) emitCountedLoop(s *ForStmt, ivRef VarRef, lo, hi Expr, strict bool, lc *loopCtx) {
	ivSlot := int32(ivRef.Slot)
	charge := bl.emit(instr{op: opStep2, pos: s.P})
	init := instr{op: opForInit, a: ivSlot, d: bl.constI(0), pos: s.P}
	if lo != nil {
		init.d = bl.asI(lo)
	}
	// The bound is loop-invariant, so pure: it neither reads the induction
	// variable nor minds that forinit assigns it only afterwards.
	init.e = bl.asI(hi)
	init.b = bl.newI()
	if strict {
		init.sub |= bcForStrict
	}
	if len(bl.code) == charge+1 {
		// Neither bound needed code: the charge moves into forinit.
		bl.code = bl.code[:charge]
		init.sub |= bcForCharge
	}
	exit, safe := bl.newLabel(), bl.newLabel()
	bl.patch(bl.emit(init), 2, exit)

	loop := &bcLoop{lc: lc, ivReg: ivSlot, lastReg: init.b, fast: true}
	body := bl.mark()
	bl.loopBody(loop, s)
	if len(loop.proofs) > 0 {
		pre := bl.mark()
		for i := range loop.proofs {
			p := &loop.proofs[i]
			if p.sx0 != nil {
				p.row.a = bl.asI(p.sx0)
			}
			if p.sx1 != nil {
				p.row.e = bl.asI(p.sx1)
			}
		}
		bl.patch(bl.emit(instr{op: opProve, a: ivSlot, b: init.b, d: int32(len(loop.proofs))}), 2, safe)
		for i := range loop.proofs {
			bl.emit(loop.proofs[i].row)
		}
		bl.swapBack(body, pre)
		bl.jmp(exit)
		bl.bind(safe)
		loop.fast = false
		bl.loopBody(loop, s)
	}
	bl.bind(exit)
}

// loopBody lowers one version of a counted loop's body and closes it
// with the back edge. When the body opens with the usual single-step
// charge, the back edge fuses it into opLoopNext2 — one budget check
// covers both the iteration charge and the next body's leading step,
// and the jump re-enters just past the opStep — and a body that is then
// one recognised form becomes a run (formRun). Bodies that open with
// anything else (opStep2 or opForInit from a nested for, or nothing at
// all) keep the plain opLoopNext.
func (bl *bcLower) loopBody(loop *bcLoop, s *ForStmt) {
	start, nLabels := len(bl.code), len(bl.labels)
	bl.loops = append(bl.loops, loop)
	for _, st := range s.Body.Stmts {
		bl.stmt(st)
	}
	bl.loops = bl.loops[:len(bl.loops)-1]
	head := bl.newLabel()
	next := instr{op: opLoopNext, a: loop.ivReg, b: loop.lastReg, pos: s.P}
	if start < len(bl.code) && bl.code[start].op == opStep {
		// A body that bound no label is straight-line.
		if len(bl.labels) == nLabels+1 {
			bl.formRun(loop, start+1)
		}
		next.op = opLoopNext2
		start++
	}
	bl.labels[head] = start
	bl.patch(bl.emit(next), 2, head)
}

// ---- unchecked-access classification ----

// classifyFast classifies a subscript chain against the innermost
// counted loop's fast body, registering the preamble proofs that make
// the unchecked address valid for every iteration. Returns ok=false
// when the access must stay checked.
func (bl *bcLower) classifyFast(root *Ident, subs []Expr) (bcAddr, bool) {
	loop := bl.innermost()
	if loop == nil || !loop.fast || len(subs) < 1 || len(subs) > 2 {
		return bcAddr{}, false
	}
	c := bl.ca
	lc := loop.lc
	ref := c.refOf(root)
	var arr int32
	switch ref.Kind {
	case VarArray:
		// Local arrays declared inside the body rebind their slot each
		// iteration; the preamble proof would validate a stale binding.
		if lc.declArrays.has(ref.Slot) {
			return bcAddr{}, false
		}
		arr = int32(ref.Slot)
	case VarGlobalArray:
		arr = ^int32(ref.Slot)
	default:
		return bcAddr{}, false
	}
	cls, ok := c.classifySubs(subs, lc)
	if !ok {
		return bcAddr{}, false
	}
	// The shape of the address picks the opAddr row that proves it
	// (operand layout in bcProve) and the invariant subscripts the
	// preamble evaluates for it.
	ds := loop.dataReg(bl, arr)
	row := instr{op: opAddr, c: arr, d: ds}
	var sx0, sx1 Expr
	switch {
	case len(subs) == 1 && cls[0].iv:
		row.sub, row.imm = bcVecIV, cls[0].off
	case len(subs) == 1:
		row.sub, sx0 = bcVecInv, subs[0]
	case !cls[0].iv && cls[1].iv:
		row.sub, sx0, row.imm = bcRowIV, subs[0], cls[1].off
	case cls[0].iv && !cls[1].iv:
		row.sub, sx0, row.imm = bcColIV, subs[1], cls[0].off
	case cls[0].iv:
		// The row keeps the column's offset in a 32-bit field.
		if cls[1].off != int64(int32(cls[1].off)) {
			return bcAddr{}, false
		}
		row.sub, row.imm, row.a = bcDiag, cls[0].off, int32(cls[1].off)
	default:
		row.sub, sx0, sx1 = bcInvInv, subs[0], subs[1]
	}
	var key bcAddrKey
	cacheable := false
	if sx0 != nil && sx1 == nil {
		if key, cacheable = bl.invKey(row.sub, arr, sx0, row.imm); cacheable {
			if a, ok := loop.addrCache[key]; ok {
				return a, true
			}
		}
	}
	// The registers the row writes, and the address they make.
	addr := bcAddr{ds: ds}
	switch row.sub {
	case bcVecIV:
		addr.mode, addr.a, addr.imm = bcMode0, loop.ivReg, row.imm
	case bcVecInv, bcInvInv:
		// The whole flat offset is loop-invariant.
		row.b = bl.newI()
		addr.mode, addr.a = bcMode0, row.b
	case bcRowIV:
		// A[inv][iv+off]: row*d1 hoisted to the preamble.
		row.b = bl.newI()
		addr.mode, addr.a, addr.b, addr.imm = bcMode1, row.b, loop.ivReg, row.imm
	default:
		// A[iv+offR][inv]: ea = iv*d1 + (col + offR*d1); the diagonal
		// A[iv+off0][iv+off1]: ea = iv*(d1+1) + off0*d1 + off1. The
		// decomposed sum is congruent mod 2^64 to the proven in-range flat
		// offset, so any intermediate wrapping cancels.
		row.b, row.e = bl.newI(), bl.newI()
		addr.mode, addr.a, addr.b, addr.e = bcMode2, loop.ivReg, row.b, row.e
	}
	loop.proofs = append(loop.proofs, bcProof{row, sx0, sx1})
	if cacheable {
		if loop.addrCache == nil {
			loop.addrCache = map[bcAddrKey]bcAddr{}
		}
		loop.addrCache[key] = addr
	}
	return addr, true
}

// invKey builds the address-cache key for an invariant subscript when
// it is a plain scalar variable (possibly parenthesized): its value is
// fixed for the whole loop, so occurrences with equal (array, slot,
// offset) address the same element. Other invariant expressions are
// not cached — proving two of them equivalent would need a structural
// comparison the lowerer does not attempt.
func (bl *bcLower) invKey(shape uint8, arr int32, sx Expr, off int64) (bcAddrKey, bool) {
	id, ok := stripParens(sx).(*Ident)
	if !ok {
		return bcAddrKey{}, false
	}
	ref := bl.ca.refOf(id)
	if ref.Kind != VarScalar && ref.Kind != VarGlobalScalar {
		return bcAddrKey{}, false
	}
	return bcAddrKey{shape: shape, arr: arr, kind: ref.Kind, slot: ref.Slot, off: off}, true
}

// emitU emits one unchecked access instruction at a classified address;
// group is the mode-0 opcode of a *0/*1/*2 group.
func (bl *bcLower) emitU(group bcOp, addr bcAddr, sub uint8, d int32, pos Pos) {
	bl.emit(instr{op: group + bcOp(addr.mode), sub: sub, a: addr.a, b: addr.b,
		c: addr.ds, d: d, e: addr.e, imm: addr.imm, pos: pos})
}

// ---- run forms ----

// bcOpnd makes the run operand row for the address of unchecked access
// in, of mode m. ok is false unless the address moves with the induction
// register iv the way a row of that mode is taken to.
func bcOpnd(in *instr, m uint8, iv int32) (row instr, ok bool) {
	row = instr{op: opOpnd, sub: m, a: in.a, c: in.c, pos: in.pos}
	switch m {
	case bcMode0:
		row.imm = in.imm
		if in.a == iv {
			row.d = 1
		}
		return row, true
	case bcMode1:
		row.b, row.imm = in.b, in.imm
		return row, in.a != iv && in.b == iv
	default:
		row.b, row.e = in.b, in.e
		return row, in.a == iv && in.b != iv && in.e != iv
	}
}

// runLoad decodes a proven load of a run form: the temporary it fills
// and its operand row.
func (bl *bcLower) runLoad(in *instr, iv int32) (dst int32, row instr, ok bool) {
	if in.op < opLdU0 || in.op > opLdU2 {
		return 0, instr{}, false
	}
	row, ok = bcOpnd(in, uint8(in.op-opLdU0), iv)
	return in.d, row, ok && bl.isTemp(in.d)
}

func (bl *bcLower) isTemp(r int32) bool { return int(r) >= bl.nSlots }

// formRun replaces the straight-line body bl.code[at:] of loop with a
// run head and its operand rows when the body, its opSteps aside, is
// exactly one of the three run forms (bytecode.go). Every register the
// body writes must be a temporary the form itself consumes: temporaries
// are never reused, so nothing outside the body reads one and the native
// loop need not write them. A step inside the body (a spliced callee's
// statements) may only follow instructions that can neither fault nor
// have an effect outside the registers: then charging it before them
// instead is unobservable, so the steps move in front of the head, where
// they charge the iteration the head is entered for, and the head
// charges k = 2 + their number per further iteration. Anything else
// about the body leaves it as it is.
func (bl *bcLower) formRun(loop *bcLoop, at int) {
	body, steps := bl.code[at:], []instr(nil)
	pure := true // nothing so far can fault or write outside the registers
	for _, in := range body {
		switch {
		case in.op != opStep:
			pure = pure && bcPure(in.op)
		case !pure:
			return
		default:
			steps = append(steps, in)
		}
	}
	if len(steps) > 0 {
		body = slices.DeleteFunc(slices.Clone(body), func(in instr) bool { return in.op == opStep })
	}
	if len(body) == 0 {
		return
	}
	// Each form is called by name, not through a table of func values,
	// so rows stays on the stack.
	var rows [1 + bcSumMax]instr
	blank := instr{a: loop.ivReg, b: loop.lastReg, e: int32(2 + len(steps)), pos: body[len(body)-1].pos}
	head := blank
	if head.c = bl.formStore(body, loop.ivReg, &head, &rows); head.c == 0 {
		head = blank
		head.c = bl.formMac(body, loop.ivReg, &head, &rows)
	}
	if head.c > 0 {
		bl.code = append(append(append(bl.code[:at], steps...), head), rows[:head.c]...)
	}
}

// bcPure reports whether op can neither fault nor write outside the
// registers: a proven load, a float ALU op or a register move.
func bcPure(op bcOp) bool {
	return op >= opLdU0 && op <= opLdU2 || op >= opAddF && op <= opAddcF || op == opMovI || op == opMovF
}

// formMac matches T ±= float64(([c·]X)·Y) in the plain instructions a
// statement lowers to. The body ends in one of
//
//	cmu± T, p                                an element compound
//	ldu o = T; add|sub r = o, p; stu T, r    an element plain form
//	add|sub r = s, p; mov.f s, r             a float scalar
//
// with mul.f p = P, Q, each multiplicand a load of the body or a register
// the body leaves alone — and P may instead be mul.f P = c, X, a
// coefficient the body leaves alone times such an operand. Only these
// operand orders are taken (the target the add's left operand, the
// coefficient the multiply's): commuting either could change which NaN
// payload propagates. Any other instruction in the body disqualifies it.
// It fills in the head and the rows T, X, Y and returns their number, 0
// when the body is no such form.
func (bl *bcLower) formMac(body []instr, iv int32, head *instr, rows *[1 + bcSumMax]instr) int32 {
	head.op = opRunMac
	last, rest := &body[len(body)-1], body[:len(body)-1]
	if len(rest) > 6 { // the longest form: ldu T, ldu X, mul.f c·X, ldu Y, mul.f, add
		return 0
	}
	// def returns the instruction of rest that writes r, marking it taken
	// into the form, or nil when the body leaves r alone.
	var taken uint8
	def := func(r int32) *instr {
		for i := range rest {
			if rest[i].d == r {
				taken |= 1 << i
				return &rest[i]
			}
		}
		return nil
	}
	// operand is the row of multiplicand r: the walk of the load that
	// fills it, or r itself, a walk of stride 0.
	operand := func(r int32) (instr, bool) {
		in := def(r)
		if in == nil {
			return instr{op: opOpnd, sub: bcModeReg, a: r}, true
		}
		_, row, ok := bl.runLoad(in, iv)
		return row, ok
	}
	var t instr
	var ok bool
	p := last.d // the product a compound adds
	switch {
	case last.op >= opCmU0 && last.op <= opCmU2 && last.sub <= bcOpSub:
		t, ok = bcOpnd(last, uint8(last.op-opCmU0), iv)
		if last.sub == bcOpSub {
			head.sub |= bcRunNeg
		}
	case last.op == opMovF || last.op >= opStU0 && last.op <= opStU2:
		r := last.d
		if last.op == opMovF {
			r = last.a
		}
		add := def(r)
		if add == nil || add.op != opAddF && add.op != opSubF {
			return 0
		}
		if add.op == opSubF {
			head.sub |= bcRunNeg
		}
		p = add.b
		if last.op == opMovF {
			t, ok = instr{op: opOpnd, sub: bcModeReg, a: last.d, pos: last.pos}, add.a == last.d
			break
		}
		// The old value is a load of the very element the store writes.
		t, ok = bcOpnd(last, uint8(last.op-opStU0), iv)
		o, oOK := operand(add.a)
		o.pos = t.pos
		ok = ok && oOK && o == t
	}
	if !ok {
		return 0
	}
	mul := def(p)
	if mul == nil || mul.op != opMulF {
		return 0
	}
	xr := mul.a
	if cm := def(xr); cm != nil && cm.op == opMulF {
		// The coefficient is read once per run: the body must not write it,
		// nor may it be a register target.
		if def(cm.a) != nil || t.sub == bcModeReg && t.a == cm.a {
			return 0
		}
		head.sub |= bcRunCoef
		head.d, xr = cm.a, cm.b
	}
	x, okX := operand(xr)
	y, okY := operand(mul.b)
	if !okX || !okY || taken != 1<<len(rest)-1 {
		return 0
	}
	rows[0], rows[1], rows[2] = t, x, y
	return 3
}

// formStore matches T = X (opRunMap) and T = (X1+…+Xk) [scaled]
// (opRunSum), the body ending in the store: a chain of loads added left
// to right, then at most one multiplication or division by a register
// the body leaves alone. It fills in the head and the rows T, X1…Xk and
// returns their number, 0 when the body is no such form.
func (bl *bcLower) formStore(body []instr, iv int32, head *instr, rows *[1 + bcSumMax]instr) int32 {
	head.op = opRunMap
	st := &body[len(body)-1]
	if st.op < opStU0 || st.op > opStU2 {
		return 0
	}
	body = body[:len(body)-1]
	var ok bool
	if rows[0], ok = bcOpnd(st, uint8(st.op-opStU0), iv); !ok {
		return 0
	}
	if len(body) == 0 {
		rows[1] = instr{op: opOpnd, sub: bcModeReg, a: st.d}
		return 2
	}
	n := int32(1) // rows so far
	var sum int32 // the temporary holding the sum so far
	i := 0
	for ; i < len(body) && int(n) < len(rows); i++ {
		dst, row, ok := bl.runLoad(&body[i], iv)
		if !ok {
			break
		}
		rows[n] = row
		n++
		if i == 0 {
			sum = dst
			continue
		}
		i++
		if add := body[i:]; len(add) == 0 || add[0].op != opAddF || add[0].a != sum || add[0].b != dst || !bl.isTemp(add[0].d) {
			return 0
		}
		sum = body[i].d
	}
	if n < 2 {
		return 0
	}
	if i == len(body)-1 {
		sc := &body[i]
		switch {
		case sc.op == opMulF && sc.b == sum && sc.a != sum:
			head.sub, head.d = bcScaleMulL, sc.a
		case sc.op == opMulF && sc.a == sum && sc.b != sum:
			head.sub, head.d = bcScaleMulR, sc.b
		case sc.op == opDivF && sc.a == sum && sc.b != sum:
			head.sub, head.d = bcScaleDiv, sc.b
		default:
			return 0
		}
		for j := range body[:i] {
			if body[j].d == head.d {
				return 0
			}
		}
		if !bl.isTemp(sc.d) {
			return 0
		}
		sum = sc.d
		i++
	}
	if i != len(body) || sum != st.d {
		return 0
	}
	if n > 2 || head.sub != bcScaleNone {
		head.op = opRunSum
	}
	return n
}

// ---- element access ----

func (bl *bcLower) arrRefOf(root *Ident) int32 {
	ref := bl.ca.refOf(root)
	switch ref.Kind {
	case VarArray:
		return int32(ref.Slot)
	case VarGlobalArray:
		return ^int32(ref.Slot)
	}
	bl.bail(bcBailArray, root.Pos())
	return 0
}

// lowerSubs evaluates the subscripts of an access (or the dimensions of
// a declaration) of rank 1 or 2 left to right into index registers,
// protecting earlier results against writes in later ones; idx[1] is
// unused at rank 1.
func (bl *bcLower) lowerSubs(subs []Expr) (idx [2]int32) {
	if len(subs) > 2 {
		bl.bail(bcBailRank, subs[2].Pos())
	}
	for i, sx := range subs {
		idx[i] = bl.asI(sx)
		if i+1 < len(subs) {
			idx[i] = bl.protectI(idx[i], subs[i+1:]...)
		}
	}
	return idx
}

// indexLoad lowers an element read in float expression position.
func (bl *bcLower) indexLoad(ix *IndexExpr) int32 {
	var buf [2]Expr
	root, subs := splitIndexChain(ix, &buf)
	if root == nil {
		bl.bail(bcBailArray, ix.P)
	}
	t := bl.newF()
	if addr, ok := bl.classifyFast(root, subs); ok {
		bl.emitU(opLdU0, addr, 0, t, ix.P)
		return t
	}
	arr := bl.arrRefOf(root)
	idx := bl.lowerSubs(subs)
	if len(subs) == 1 {
		bl.emit(instr{op: opLdE1, a: idx[0], c: arr, d: t, pos: ix.P})
	} else {
		bl.emit(instr{op: opLdE2, a: idx[0], b: idx[1], c: arr, d: t, pos: ix.P})
	}
	return t
}

// storeElem lowers a plain element store of an already-evaluated float
// register (RHS first, then subscripts — walker evaluation order).
func (bl *bcLower) storeElem(ix *IndexExpr, fv int32) {
	var buf [2]Expr
	root, subs := splitIndexChain(ix, &buf)
	if root == nil {
		bl.bail(bcBailArray, ix.P)
	}
	if addr, ok := bl.classifyFast(root, subs); ok {
		bl.emitU(opStU0, addr, 0, fv, ix.P)
		return
	}
	arr := bl.arrRefOf(root)
	fv = bl.protectF(fv, subs...)
	idx := bl.lowerSubs(subs)
	if len(subs) == 1 {
		bl.emit(instr{op: opStE1, a: idx[0], c: arr, d: fv, pos: ix.P})
	} else {
		bl.emit(instr{op: opStE2, a: idx[0], b: idx[1], c: arr, d: fv, pos: ix.P})
	}
}

// compoundElem lowers an element compound assignment in expression
// position, returning the stored value's register.
func (bl *bcLower) compoundElem(ix *IndexExpr, base TokenKind, rhs Expr) int32 {
	rv := bl.asF(rhs)
	var buf [2]Expr
	root, subs := splitIndexChain(ix, &buf)
	if root == nil {
		bl.bail(bcBailArray, ix.P)
	}
	res := bl.newF()
	if addr, ok := bl.classifyFast(root, subs); ok {
		old := bl.newF()
		bl.emitU(opLdU0, addr, 0, old, ix.P)
		bl.emit(bl.fArith(base, res, old, rv, ix.P))
		bl.emitU(opStU0, addr, 0, res, ix.P)
		return res
	}
	arr := bl.arrRefOf(root)
	rv = bl.protectF(rv, subs...)
	idx := bl.lowerSubs(subs)
	if len(subs) == 1 {
		bl.emit(instr{op: opCmE1, sub: bcArithCode(base), a: idx[0], c: arr, d: rv, e: res, pos: ix.P})
	} else {
		bl.emit(instr{op: opCmE2, sub: bcArithCode(base), a: idx[0], b: idx[1], c: arr, d: rv, e: res, pos: ix.P})
	}
	return res
}

// ---- expressions ----

// lowerI lowers a statically-int expression, returning its register.
func (bl *bcLower) lowerI(e Expr) int32 {
	if v, ok := constEval(e); ok {
		return bl.constI(v.Int())
	}
	switch e := e.(type) {
	case *Ident:
		ref := bl.ca.refOf(e)
		switch ref.Kind {
		case VarScalar:
			return bl.slotReg(ref.Slot)
		case VarGlobalScalar:
			t := bl.newI()
			bl.emit(instr{op: opLdGI, d: t, a: int32(ref.Slot)})
			return t
		}
	case *ParenExpr:
		return bl.lowerI(e.X)
	case *CastExpr:
		return bl.asI(e.X)
	case *UnExpr:
		switch e.Op {
		case MINUS:
			x := bl.lowerI(e.X)
			t := bl.newI()
			bl.emit(instr{op: opNegI, d: t, a: x})
			return t
		case NOT:
			return bl.boolNum(e.X, 0, 1)
		}
	case *BinExpr:
		switch e.Op {
		case ANDAND, OROR, EQ, NEQ, LT, GT, LEQ, GEQ:
			return bl.boolNum(e, 1, 0)
		}
		x := bl.lowerI(e.X)
		x = bl.protectI(x, e.Y)
		y := bl.lowerI(e.Y)
		t := bl.newI()
		bl.emit(bl.iArith(e.Op, t, x, y, e.P))
		return t
	case *CondExpr:
		t := bl.newI()
		els := bl.newLabel()
		end := bl.newLabel()
		bl.branchBool(e.Cond, els, false)
		r1 := bl.lowerI(e.Then)
		bl.emit(instr{op: opMovI, d: t, a: r1})
		bl.jmp(end)
		bl.bind(els)
		r2 := bl.lowerI(e.Else)
		bl.emit(instr{op: opMovI, d: t, a: r2})
		bl.bind(end)
		return t
	case *AssignExpr:
		return bl.intAssign(e)
	case *IncDecExpr:
		return bl.intIncDec(e)
	case *CallExpr:
		return bl.spliceCall(e, kInt)
	}
	bl.bail(bcBailExpr, e.Pos())
	return 0
}

// lowerF lowers a statically-double expression, returning its register.
func (bl *bcLower) lowerF(e Expr) int32 {
	if v, ok := constEval(e); ok {
		return bl.constF(v.Float())
	}
	switch e := e.(type) {
	case *Ident:
		ref := bl.ca.refOf(e)
		switch ref.Kind {
		case VarScalar:
			return bl.slotReg(ref.Slot)
		case VarGlobalScalar:
			t := bl.newF()
			bl.emit(instr{op: opLdGF, d: t, a: int32(ref.Slot)})
			return t
		}
	case *ParenExpr:
		return bl.lowerF(e.X)
	case *CastExpr:
		return bl.asF(e.X)
	case *UnExpr:
		if e.Op == MINUS {
			x := bl.lowerF(e.X)
			t := bl.newF()
			bl.emit(instr{op: opNegF, d: t, a: x})
			return t
		}
	case *BinExpr:
		// A statically-float binary op evaluates both operands as floats
		// (closure floatExpr parity).
		x := bl.asF(e.X)
		x = bl.protectF(x, e.Y)
		y := bl.asF(e.Y)
		t := bl.newF()
		bl.emit(bl.fArith(e.Op, t, x, y, e.P))
		return t
	case *CondExpr:
		// A double conditional may have one int branch.
		t := bl.newF()
		els := bl.newLabel()
		end := bl.newLabel()
		bl.branchBool(e.Cond, els, false)
		r1 := bl.asF(e.Then)
		bl.emit(instr{op: opMovF, d: t, a: r1})
		bl.jmp(end)
		bl.bind(els)
		r2 := bl.asF(e.Else)
		bl.emit(instr{op: opMovF, d: t, a: r2})
		bl.bind(end)
		return t
	case *IndexExpr:
		return bl.indexLoad(e)
	case *AssignExpr:
		return bl.floatAssign(e)
	case *IncDecExpr:
		return bl.floatIncDec(e)
	case *CallExpr:
		if bl.ca.isBuiltin(e) {
			return bl.builtin(e)
		}
		return bl.spliceCall(e, kFloat)
	}
	bl.bail(bcBailExpr, e.Pos())
	return 0
}

// asI lowers e to an int register with Value.Int() coercion semantics.
func (bl *bcLower) asI(e Expr) int32 {
	if v, ok := constEval(e); ok {
		return bl.constI(v.Int())
	}
	if bl.ca.kindOf(e) == kInt {
		return bl.lowerI(e)
	}
	f := bl.lowerF(e)
	t := bl.newI()
	bl.emit(instr{op: opF2I, d: t, a: f})
	return t
}

// asF lowers e to a float register with Value.Float() semantics.
func (bl *bcLower) asF(e Expr) int32 {
	if v, ok := constEval(e); ok {
		return bl.constF(v.Float())
	}
	if bl.ca.kindOf(e) == kFloat {
		return bl.lowerF(e)
	}
	i := bl.lowerI(e)
	t := bl.newF()
	bl.emit(instr{op: opI2F, d: t, a: i})
	return t
}

// ---- branches ----

// branchBool emits a conditional jump to target taken when e's C
// truthiness equals jumpIf. Short-circuit operators lower to branch
// chains without materializing 0/1 (closure boolExpr parity).
func (bl *bcLower) branchBool(e Expr, target int, jumpIf bool) {
	if v, ok := constEval(e); ok {
		if v.Bool() == jumpIf {
			bl.jmp(target)
		}
		return
	}
	switch e := e.(type) {
	case *ParenExpr:
		bl.branchBool(e.X, target, jumpIf)
		return
	case *UnExpr:
		if e.Op == NOT {
			bl.branchBool(e.X, target, !jumpIf)
			return
		}
	case *BinExpr:
		switch e.Op {
		case ANDAND:
			if !jumpIf {
				bl.branchBool(e.X, target, false)
				bl.branchBool(e.Y, target, false)
			} else {
				skip := bl.newLabel()
				bl.branchBool(e.X, skip, false)
				bl.branchBool(e.Y, target, true)
				bl.bind(skip)
			}
			return
		case OROR:
			if jumpIf {
				bl.branchBool(e.X, target, true)
				bl.branchBool(e.Y, target, true)
			} else {
				skip := bl.newLabel()
				bl.branchBool(e.X, skip, true)
				bl.branchBool(e.Y, target, false)
				bl.bind(skip)
			}
			return
		case EQ, NEQ, LT, GT, LEQ, GEQ:
			bl.branchCmp(e, target, jumpIf)
			return
		}
	}
	if bl.ca.kindOf(e) == kInt {
		r := bl.lowerI(e)
		op := opBrNZI
		if !jumpIf {
			op = opBrZI
		}
		bl.patch(bl.emit(instr{op: op, a: r}), 1, target)
		return
	}
	r := bl.lowerF(e)
	op := opBrNZF
	if !jumpIf {
		op = opBrZF
	}
	bl.patch(bl.emit(instr{op: op, a: r}), 1, target)
}

// branchCmp lowers a comparison branch: an int compare when both
// operands are int, else a double one. bcNegate inverts the evaluated
// predicate rather than rewriting the operator, so NaN branch behaviour
// matches the closure backend's !cond exactly.
func (bl *bcLower) branchCmp(e *BinExpr, target int, jumpIf bool) {
	var code uint8
	switch e.Op {
	case EQ:
		code = bcEQ
	case NEQ:
		code = bcNEQ
	case LT:
		code = bcLT
	case GT:
		code = bcGT
	case LEQ:
		code = bcLEQ
	default:
		code = bcGEQ
	}
	if !jumpIf {
		code |= bcNegate
	}
	if bl.ca.kindOf(e.X) == kInt && bl.ca.kindOf(e.Y) == kInt {
		x := bl.asI(e.X)
		x = bl.protectI(x, e.Y)
		y := bl.asI(e.Y)
		bl.patch(bl.emit(instr{op: opBrCI, sub: code, a: x, b: y}), 2, target)
		return
	}
	x := bl.asF(e.X)
	x = bl.protectF(x, e.Y)
	y := bl.asF(e.Y)
	bl.patch(bl.emit(instr{op: opBrCF, sub: code, a: x, b: y}), 2, target)
}

// boolNum materializes e's truthiness as tv/fv in an int register.
func (bl *bcLower) boolNum(e Expr, tv, fv int64) int32 {
	t := bl.newI()
	fl := bl.newLabel()
	end := bl.newLabel()
	bl.branchBool(e, fl, false)
	bl.emit(instr{op: opLdcI, d: t, imm: tv})
	bl.jmp(end)
	bl.bind(fl)
	bl.emit(instr{op: opLdcI, d: t, imm: fv})
	bl.bind(end)
	return t
}

// ---- assignments, ++/--, builtins ----

// intAssign lowers a store into an int scalar, the only assignment
// whose value is int.
func (bl *bcLower) intAssign(e *AssignExpr) int32 {
	id, ok := stripParens(e.LHS).(*Ident)
	if !ok {
		bl.bail(bcBailExpr, e.Pos())
	}
	ref := bl.ca.refOf(id)
	switch ref.Kind {
	case VarScalar:
		slot := int32(ref.Slot)
		if e.Op == ASSIGN {
			rv := bl.asI(e.RHS)
			if rv != slot {
				bl.emit(instr{op: opMovI, d: slot, a: rv})
			}
			return slot
		}
		base, ok := compoundBase(e.Op)
		if !ok {
			bl.bail(bcBailOp, e.Pos())
		}
		if bl.ca.kindOf(e.RHS) == kInt {
			// RHS first, then the target's old value (closure parity).
			rv := bl.lowerI(e.RHS)
			t := bl.newI()
			bl.emit(bl.iArith(base, t, slot, rv, e.P))
			bl.emit(instr{op: opMovI, d: slot, a: t})
			return t
		}
		// int var ⊕= double rhs: double arithmetic, truncating store.
		rv := bl.lowerF(e.RHS)
		t1 := bl.newF()
		bl.emit(instr{op: opI2F, d: t1, a: slot})
		t2 := bl.newF()
		bl.emit(bl.fArith(base, t2, t1, rv, e.P))
		t3 := bl.newI()
		bl.emit(instr{op: opF2I, d: t3, a: t2})
		bl.emit(instr{op: opMovI, d: slot, a: t3})
		return t3
	case VarGlobalScalar:
		g := int32(ref.Slot)
		if e.Op == ASSIGN {
			rv := bl.asI(e.RHS)
			bl.emit(instr{op: opStGI, d: g, a: rv})
			return rv
		}
		base, ok := compoundBase(e.Op)
		if !ok {
			bl.bail(bcBailOp, e.Pos())
		}
		if bl.ca.kindOf(e.RHS) == kInt {
			rv := bl.lowerI(e.RHS)
			old := bl.newI()
			bl.emit(instr{op: opLdGI, d: old, a: g})
			t := bl.newI()
			bl.emit(bl.iArith(base, t, old, rv, e.P))
			bl.emit(instr{op: opStGI, d: g, a: t})
			return t
		}
		rv := bl.lowerF(e.RHS)
		old := bl.newI()
		bl.emit(instr{op: opLdGI, d: old, a: g})
		of := bl.newF()
		bl.emit(instr{op: opI2F, d: of, a: old})
		t2 := bl.newF()
		bl.emit(bl.fArith(base, t2, of, rv, e.P))
		t3 := bl.newI()
		bl.emit(instr{op: opF2I, d: t3, a: t2})
		bl.emit(instr{op: opStGI, d: g, a: t3})
		return t3
	}
	bl.bail(bcBailExpr, e.Pos())
	return 0
}

// floatAssign lowers an assignment whose value is double: a store into
// a double scalar or an array element.
func (bl *bcLower) floatAssign(e *AssignExpr) int32 {
	if ix, ok := stripParens(e.LHS).(*IndexExpr); ok {
		if e.Op == ASSIGN {
			rv := bl.asF(e.RHS)
			bl.storeElem(ix, rv)
			return rv
		}
		base, ok := compoundBase(e.Op)
		if !ok {
			bl.bail(bcBailOp, e.Pos())
		}
		return bl.compoundElem(ix, base, e.RHS)
	}
	id, ok := stripParens(e.LHS).(*Ident)
	if !ok {
		bl.bail(bcBailExpr, e.Pos())
	}
	ref := bl.ca.refOf(id)
	switch ref.Kind {
	case VarScalar:
		slot := int32(ref.Slot)
		if e.Op == ASSIGN {
			rv := bl.asF(e.RHS)
			if rv != slot {
				bl.emit(instr{op: opMovF, d: slot, a: rv})
			}
			return slot
		}
		base, ok := compoundBase(e.Op)
		if !ok {
			bl.bail(bcBailOp, e.Pos())
		}
		rv := bl.asF(e.RHS)
		t := bl.newF()
		bl.emit(bl.fArith(base, t, slot, rv, e.P))
		bl.emit(instr{op: opMovF, d: slot, a: t})
		return t
	case VarGlobalScalar:
		g := int32(ref.Slot)
		if e.Op == ASSIGN {
			rv := bl.asF(e.RHS)
			bl.emit(instr{op: opStGF, d: g, a: rv})
			return rv
		}
		base, ok := compoundBase(e.Op)
		if !ok {
			bl.bail(bcBailOp, e.Pos())
		}
		rv := bl.asF(e.RHS)
		old := bl.newF()
		bl.emit(instr{op: opLdGF, d: old, a: g})
		t := bl.newF()
		bl.emit(bl.fArith(base, t, old, rv, e.P))
		bl.emit(instr{op: opStGF, d: g, a: t})
		return t
	}
	bl.bail(bcBailExpr, e.Pos())
	return 0
}

// intIncDec lowers i++ / i-- on a statically-int scalar, returning the
// old value (postfix semantics).
func (bl *bcLower) intIncDec(e *IncDecExpr) int32 {
	id, ok := stripParens(e.X).(*Ident)
	if !ok {
		bl.bail(bcBailExpr, e.Pos())
	}
	delta := int64(1)
	if e.Op != INC {
		delta = -1
	}
	ref := bl.ca.refOf(id)
	switch ref.Kind {
	case VarScalar:
		slot := int32(ref.Slot)
		old := bl.newI()
		bl.emit(instr{op: opMovI, d: old, a: slot})
		bl.emit(instr{op: opAddcI, d: slot, a: slot, imm: delta})
		return old
	case VarGlobalScalar:
		g := int32(ref.Slot)
		old := bl.newI()
		bl.emit(instr{op: opLdGI, d: old, a: g})
		t := bl.newI()
		bl.emit(instr{op: opAddcI, d: t, a: old, imm: delta})
		bl.emit(instr{op: opStGI, d: g, a: t})
		return old
	}
	bl.bail(bcBailExpr, e.Pos())
	return 0
}

// floatIncDec lowers x++ / x-- on a float scalar or array element.
func (bl *bcLower) floatIncDec(e *IncDecExpr) int32 {
	inc := e.Op == INC
	delta := 1.0
	if !inc {
		delta = -1.0
	}
	if ix, ok := stripParens(e.X).(*IndexExpr); ok {
		var buf [2]Expr
		root, subs := splitIndexChain(ix, &buf)
		if root == nil {
			bl.bail(bcBailArray, ix.P)
		}
		old := bl.newF()
		if addr, ok := bl.classifyFast(root, subs); ok {
			nv := bl.newF()
			bl.emitU(opLdU0, addr, 0, old, ix.P)
			bl.emit(instr{op: opAddcF, d: nv, a: old, fv: delta})
			bl.emitU(opStU0, addr, 0, nv, ix.P)
			return old
		}
		var sub uint8
		if inc {
			sub = 1
		}
		arr := bl.arrRefOf(root)
		idx := bl.lowerSubs(subs)
		if len(subs) == 1 {
			bl.emit(instr{op: opIncE1, sub: sub, a: idx[0], c: arr, d: old, pos: ix.P})
		} else {
			bl.emit(instr{op: opIncE2, sub: sub, a: idx[0], b: idx[1], c: arr, d: old, pos: ix.P})
		}
		return old
	}
	id, ok := stripParens(e.X).(*Ident)
	if !ok {
		bl.bail(bcBailExpr, e.Pos())
	}
	ref := bl.ca.refOf(id)
	switch ref.Kind {
	case VarScalar:
		slot := int32(ref.Slot)
		old := bl.newF()
		bl.emit(instr{op: opMovF, d: old, a: slot})
		bl.emit(instr{op: opAddcF, d: slot, a: slot, fv: delta})
		return old
	case VarGlobalScalar:
		g := int32(ref.Slot)
		old := bl.newF()
		bl.emit(instr{op: opLdGF, d: old, a: g})
		t := bl.newF()
		bl.emit(instr{op: opAddcF, d: t, a: old, fv: delta})
		bl.emit(instr{op: opStGF, d: g, a: t})
		return old
	}
	bl.bail(bcBailExpr, e.Pos())
	return 0
}

// builtin lowers a math-builtin call.
func (bl *bcLower) builtin(e *CallExpr) int32 {
	var args [2]int32 // every builtin takes one or two (the resolver checks)
	for i, a := range e.Args {
		args[i] = bl.asF(a)
		if i+1 < len(e.Args) {
			args[i] = bl.protectF(args[i], e.Args[i+1:]...)
		}
	}
	t := bl.newF()
	var sub uint8
	switch e.Fun {
	case "pow":
		bl.emit(instr{op: opPow, d: t, a: args[0], b: args[1]})
		return t
	case "sqrt":
		sub = bcSqrt
	case "fabs":
		sub = bcFabs
	case "exp":
		sub = bcExp
	case "log":
		sub = bcLog
	case "floor":
		sub = bcFloor
	case "ceil":
		sub = bcCeil
	default:
		bl.bail(bcBailOp, e.Pos())
	}
	bl.emit(instr{op: opMath1, sub: sub, d: t, a: args[0]})
	return t
}

// ---- spliced calls ----

// bcSplice is a call site being lowered in place.
type bcSplice struct {
	want   kind          // the callee's declared kind; kNone when the caller discards the result
	rename map[int]int32 // relocated parameter slot -> the argument temporary it reads
	tail   *ReturnStmt   // the callee's only return, when it is its last statement
	res    int32         // the result register
	end    int           // the label after the body, -1 until a return jumps there
}

// spliceCall lowers a user call the inliner planned (siteFor) in place,
// returning the register that holds its result of kind want, the
// callee's declared kind (none for kNone: a call in statement
// position); any other user call bails.
// Arguments evaluate left to right in the caller's context and bind by
// value, converted to the declared kind, as inlineCall's binders do. A parameter the callee never assigns is
// renamed to its argument's temporary; every other one is copied into
// its relocated slot register at once, so a later argument that writes a
// caller variable cannot reach it. The body then lowers with the
// callee's slots relocated (ca.remap), charging its statements exactly as
// the called body would.
func (bl *bcLower) spliceCall(e *CallExpr, want kind) int32 {
	site := bl.ca.siteFor(e)
	if site == nil {
		fi, why := bl.ca.prog.res.Funcs[e.Fun], "not inlined"
		switch {
		case fi.UserCalls > 0:
			why = "not a leaf"
		case fi.BodyNodes > inlineMaxNodes:
			why = "too large"
		}
		panic(&bcBail{why: bcBailCall, pos: e.P, call: fmt.Sprintf("%s (%s)", e.Fun, why)})
	}
	fi := site.callee
	sp := &bcSplice{want: want, rename: map[int]int32{}, end: -1}
	for i, a := range e.Args {
		ref := site.apply(fi.Params[i])
		if ref.Kind != VarScalar {
			bl.bail(bcBailParam, a.Pos())
		}
		r, mov := int32(0), opMovF
		if fi.Decl.Params[i].Type.Kind == Int {
			r, mov = bl.asI(a), opMovI
		} else {
			r = bl.asF(a)
		}
		if bl.isTemp(r) && !bl.assigns(fi.Decl.Body, fi.Params[i].Slot) {
			sp.rename[ref.Slot] = r
		} else {
			bl.emit(instr{op: mov, d: int32(ref.Slot), a: r})
		}
	}
	returns := 0
	Walk(fi.Decl.Body, func(n Node) bool {
		if _, ok := n.(*ReturnStmt); ok {
			returns++
		}
		return true
	})
	if body := fi.Decl.Body.Stmts; returns == 1 && len(body) > 0 {
		sp.tail, _ = body[len(body)-1].(*ReturnStmt)
	}
	if sp.tail == nil && want != kNone {
		// Falling off the end yields the declared kind's zero.
		ldc := opLdcF
		if want == kInt {
			ldc, sp.res = opLdcI, bl.newI()
		} else {
			sp.res = bl.newF()
		}
		bl.emit(instr{op: ldc, d: sp.res})
	}
	bl.ca.remap, bl.splice = site, sp
	for _, s := range fi.Decl.Body.Stmts {
		bl.stmt(s)
	}
	// Callees are leaves: no splice is ever open around another.
	bl.ca.remap, bl.splice = nil, nil
	if sp.end >= 0 {
		bl.bind(sp.end)
	}
	return sp.res
}

// spliceReturn lowers a return of the callee being spliced: its value
// goes to the result register and control to the end of the site. The
// tail return needs neither: its value's register is the result.
func (bl *bcLower) spliceReturn(s *ReturnStmt) {
	sp := bl.splice
	if sp.want == kNone {
		if s.X != nil {
			bl.exprVoid(s.X)
		}
	} else {
		// The value converts to the declared kind; a bare return yields
		// its zero.
		var r int32
		mov := opMovF
		switch {
		case sp.want == kInt && s.X == nil:
			r, mov = bl.constI(0), opMovI
		case sp.want == kInt:
			r, mov = bl.asI(s.X), opMovI
		case s.X == nil:
			r = bl.constF(0)
		default:
			r = bl.asF(s.X)
		}
		if s == sp.tail {
			sp.res = r
		} else {
			bl.emit(instr{op: mov, d: sp.res, a: r})
		}
	}
	if s != sp.tail {
		if sp.end < 0 {
			sp.end = bl.newLabel()
		}
		bl.jmp(sp.end)
	}
}

// slotReg is the register scalar slot s is read from: a spliced
// parameter renamed to its argument's temporary, else the slot's own.
func (bl *bcLower) slotReg(s int) int32 {
	if bl.splice != nil {
		if r, ok := bl.splice.rename[s]; ok {
			return r
		}
	}
	return int32(s)
}

// assigns reports whether body assigns scalar slot s of its own frame.
func (bl *bcLower) assigns(body *Block, s int) bool {
	w := false
	Walk(body, func(n Node) bool {
		var x Expr
		switch n := n.(type) {
		case *AssignExpr:
			x = n.LHS
		case *IncDecExpr:
			x = n.X
		}
		if id, ok := stripParens(x).(*Ident); ok {
			if ref := bl.ca.prog.res.refs[id.ID]; ref.Kind == VarScalar && ref.Slot == s {
				w = true
			}
		}
		return !w
	})
	return w
}

// ---- statement-position expressions ----

// exprVoid lowers e for statement position: element stores are emitted
// store-only.
func (bl *bcLower) exprVoid(e Expr) {
	switch e := e.(type) {
	case *ParenExpr:
		bl.exprVoid(e.X)
		return
	case *AssignExpr:
		if ix, ok := stripParens(e.LHS).(*IndexExpr); ok {
			bl.voidElemAssign(e, ix)
			return
		}
	case *CallExpr:
		if !bl.ca.isBuiltin(e) {
			bl.spliceCall(e, kNone) // the value is discarded, whatever its kind
			return
		}
	}
	if _, ok := constEval(e); ok {
		return // pure constant in statement position
	}
	if bl.ca.kindOf(e) == kInt {
		bl.lowerI(e)
	} else {
		bl.lowerF(e)
	}
}

// voidElemAssign lowers an element assignment in statement position: a
// proven target is classified before the RHS, and a compound one is
// updated in place (opCmU*) without a result register.
func (bl *bcLower) voidElemAssign(e *AssignExpr, ix *IndexExpr) {
	var buf [2]Expr
	root, subs := splitIndexChain(ix, &buf)
	if root == nil {
		bl.bail(bcBailArray, ix.P)
	}
	addr, fast := bl.classifyFast(root, subs)
	if e.Op == ASSIGN {
		rv := bl.asF(e.RHS)
		if fast {
			bl.emitU(opStU0, addr, 0, rv, ix.P)
			return
		}
		arr := bl.arrRefOf(root)
		rv = bl.protectF(rv, subs...)
		idx := bl.lowerSubs(subs)
		if len(subs) == 1 {
			bl.emit(instr{op: opStE1, a: idx[0], c: arr, d: rv, pos: ix.P})
		} else {
			bl.emit(instr{op: opStE2, a: idx[0], b: idx[1], c: arr, d: rv, pos: ix.P})
		}
		return
	}
	base, ok := compoundBase(e.Op)
	if !ok {
		bl.bail(bcBailOp, e.Pos())
	}
	rv := bl.asF(e.RHS)
	if fast {
		bl.emitU(opCmU0, addr, bcArithCode(base), rv, ix.P)
		return
	}
	arr := bl.arrRefOf(root)
	rv = bl.protectF(rv, subs...)
	idx := bl.lowerSubs(subs)
	res := bl.newF()
	if len(subs) == 1 {
		bl.emit(instr{op: opCmE1, sub: bcArithCode(base), a: idx[0], c: arr, d: rv, e: res, pos: ix.P})
	} else {
		bl.emit(instr{op: opCmE2, sub: bcArithCode(base), a: idx[0], b: idx[1], c: arr, d: rv, e: res, pos: ix.P})
	}
}
