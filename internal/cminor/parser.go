package cminor

import "strconv"

// Parser builds a File from the tokens its Lexer hands it one at a
// time: tok is the current token, ahead the one-token lookahead once
// peek has pulled it.
type Parser struct {
	lx     *Lexer
	tok    Token
	ahead  Token
	peeked bool
	diags  DiagList
	name   string
	// pending pragmas seen since the last statement/declaration; they
	// attach to the next for-loop or function, or become PragmaStmts.
	pending []*Pragma
	// nextID numbers the annotatable nodes (Ident, DeclStmt, CallExpr)
	// so semantic passes can use NodeID-indexed side tables.
	nextID NodeID
}

// newID hands out the next dense NodeID.
func (p *Parser) newID() NodeID {
	id := p.nextID
	p.nextID++
	return id
}

// Parse parses a translation unit. name is used for positions/diagnostics.
// On failure the returned error is a DiagList whose entries carry
// file:line:col positions.
func Parse(name, src string) (*File, error) {
	p := &Parser{lx: NewFileLexer(name, src), name: name}
	p.tok = p.lx.Next()
	f := p.parseFile()
	// Lexical diagnostics come first, as if the whole input had been
	// lexed before parsing began.
	if diags := append(p.lx.Errors(), p.diags...); len(diags) > 0 {
		return f, diags
	}
	return f, nil
}

// MustParse parses src and panics on error; intended for embedded
// benchmark sources and tests.
func MustParse(name, src string) *File {
	f, err := Parse(name, src)
	if err != nil {
		panic(err)
	}
	return f
}

func (p *Parser) cur() Token { return p.tok }

// peek returns the token after the current one (EOF at the end).
func (p *Parser) peek() Token {
	if !p.peeked {
		p.ahead, p.peeked = p.lx.Next(), true
	}
	return p.ahead
}

// next consumes the current token and returns it; at EOF it stays put.
func (p *Parser) next() Token {
	t := p.tok
	if t.Kind != EOF {
		p.tok = p.peek()
		p.peeked = false
	}
	return t
}

func (p *Parser) at(k TokenKind) bool { return p.cur().Kind == k }

func (p *Parser) accept(k TokenKind) bool {
	if p.at(k) {
		p.next()
		return true
	}
	return false
}

func (p *Parser) expect(k TokenKind) Token {
	if p.at(k) {
		return p.next()
	}
	p.errorf("expected %s, found %s", k, p.cur())
	return Token{Kind: k, Pos: p.cur().Pos}
}

func (p *Parser) errorf(format string, args ...any) {
	p.diags = append(p.diags, diagf(p.name, p.cur().Pos, format, args...))
	// Simple panic-free recovery: skip one token so we make progress.
	if !p.at(EOF) {
		p.next()
	}
}

func (p *Parser) takePragmas() []*Pragma {
	ps := p.pending
	p.pending = nil
	return ps
}

// drainPragmas consumes consecutive PRAGMA tokens into p.pending.
func (p *Parser) drainPragmas() {
	for p.at(PRAGMA) {
		t := p.next()
		p.pending = append(p.pending, &Pragma{Text: t.Text, P: t.Pos})
	}
}

func (p *Parser) parseFile() *File {
	f := &File{Name: p.name, P: Pos{Line: 1, Col: 1}}
	for !p.at(EOF) {
		p.drainPragmas()
		if p.at(EOF) {
			break
		}
		p.accept(KwStatic)
		p.accept(KwConst)
		if !p.atType() {
			p.errorf("expected declaration, found %s", p.cur())
			continue
		}
		base := p.parseBaseType()
		ptr := p.accept(STAR)
		nameTok := p.expect(IDENT)
		if p.at(LPAREN) {
			fn := p.parseFuncRest(base, ptr, nameTok)
			if fn != nil {
				f.Funcs = append(f.Funcs, fn)
			}
			continue
		}
		// Global variable declaration(s).
		for {
			typ := &Type{Kind: base, Ptr: ptr}
			for p.at(LBRACK) {
				p.next()
				typ.Dims = append(typ.Dims, p.parseExpr())
				p.expect(RBRACK)
			}
			var init Expr
			if p.accept(ASSIGN) {
				init = p.parseAssignExpr()
			}
			f.Globals = append(f.Globals, &DeclStmt{Name: nameTok.Text, Type: typ,
				Init: init, P: nameTok.Pos, ID: p.newID()})
			if !p.accept(COMMA) {
				break
			}
			ptr = p.accept(STAR)
			nameTok = p.expect(IDENT)
		}
		p.expect(SEMI)
	}
	f.NumIDs = int(p.nextID)
	return f
}

func (p *Parser) atType() bool {
	switch p.cur().Kind {
	case KwInt, KwDouble, KwFloat, KwVoid:
		return true
	}
	return false
}

func (p *Parser) parseBaseType() BasicKind {
	switch t := p.next(); t.Kind {
	case KwInt:
		return Int
	case KwDouble, KwFloat:
		return Double
	case KwVoid:
		return Void
	default:
		p.errorf("expected type, found %s", t)
		return Int
	}
}

func (p *Parser) parseFuncRest(ret BasicKind, retPtr bool, nameTok Token) *FuncDecl {
	fn := &FuncDecl{Name: nameTok.Text, Ret: &Type{Kind: ret, Ptr: retPtr},
		P: nameTok.Pos, Pragmas: p.takePragmas()}
	p.expect(LPAREN)
	if p.at(KwVoid) && p.peek().Kind == RPAREN { // f(void)
		p.next()
	}
	if !p.at(RPAREN) {
		for {
			p.accept(KwConst)
			if !p.atType() {
				p.errorf("expected parameter type, found %s", p.cur())
				break
			}
			base := p.parseBaseType()
			ptr := p.accept(STAR)
			pn := p.expect(IDENT)
			typ := &Type{Kind: base, Ptr: ptr}
			for p.at(LBRACK) {
				p.next()
				if p.at(RBRACK) { // empty first dim: T a[]
					typ.Dims = append(typ.Dims, &IntLit{V: 0, P: p.cur().Pos})
				} else {
					typ.Dims = append(typ.Dims, p.parseExpr())
				}
				p.expect(RBRACK)
			}
			fn.Params = append(fn.Params, &Param{Name: pn.Text, Type: typ, P: pn.Pos})
			if !p.accept(COMMA) {
				break
			}
		}
	}
	p.expect(RPAREN)
	if p.accept(SEMI) { // prototype only — record with nil body
		return fn
	}
	fn.Body = p.parseBlock()
	return fn
}

func (p *Parser) parseBlock() *Block {
	b := &Block{P: p.cur().Pos}
	p.expect(LBRACE)
	for !p.at(RBRACE) && !p.at(EOF) {
		stmts := p.parseStmt()
		b.Stmts = append(b.Stmts, stmts...)
	}
	p.expect(RBRACE)
	return b
}

// parseStmt returns one or more statements (comma declarations expand to
// several DeclStmts).
func (p *Parser) parseStmt() []Stmt {
	// Pragmas before a for-loop attach to it; any other following
	// statement leaves them as standalone PragmaStmts.
	if p.at(PRAGMA) {
		p.drainPragmas()
		if p.at(KwFor) {
			return []Stmt{p.parseFor()}
		}
		ps := p.takePragmas()
		out := make([]Stmt, 0, len(ps)+1)
		for _, pr := range ps {
			out = append(out, &PragmaStmt{Pragma: pr, P: pr.P})
		}
		out = append(out, p.parseStmt()...)
		return out
	}
	switch p.cur().Kind {
	case KwFor:
		return []Stmt{p.parseFor()}
	case KwWhile:
		return []Stmt{p.parseWhile()}
	case KwIf:
		return []Stmt{p.parseIf()}
	case KwReturn:
		t := p.next()
		var x Expr
		if !p.at(SEMI) {
			x = p.parseExpr()
		}
		p.expect(SEMI)
		return []Stmt{&ReturnStmt{X: x, P: t.Pos}}
	case LBRACE:
		return []Stmt{p.parseBlock()}
	case KwInt, KwDouble, KwFloat:
		return p.parseDecl()
	case SEMI:
		p.next() // empty statement
		return nil
	case RBRACE, EOF:
		return nil
	default:
		x := p.parseExpr()
		pos := x.Pos()
		p.expect(SEMI)
		return []Stmt{&ExprStmt{X: x, P: pos}}
	}
}

func (p *Parser) parseDecl() []Stmt {
	base := p.parseBaseType()
	var out []Stmt
	for {
		ptr := p.accept(STAR)
		nameTok := p.expect(IDENT)
		typ := &Type{Kind: base, Ptr: ptr}
		for p.at(LBRACK) {
			p.next()
			typ.Dims = append(typ.Dims, p.parseExpr())
			p.expect(RBRACK)
		}
		var init Expr
		if p.accept(ASSIGN) {
			init = p.parseAssignExpr()
		}
		out = append(out, &DeclStmt{Name: nameTok.Text, Type: typ, Init: init,
			P: nameTok.Pos, ID: p.newID()})
		if !p.accept(COMMA) {
			break
		}
	}
	p.expect(SEMI)
	return out
}

func (p *Parser) parseFor() *ForStmt {
	t := p.expect(KwFor)
	f := &ForStmt{P: t.Pos, Pragmas: p.takePragmas()}
	p.expect(LPAREN)
	if !p.at(SEMI) {
		if p.atType() {
			decls := p.parseDeclNoSemi()
			if len(decls) > 0 {
				f.Init = decls[0]
			}
			p.expect(SEMI)
		} else {
			x := p.parseExpr()
			f.Init = &ExprStmt{X: x, P: x.Pos()}
			p.expect(SEMI)
		}
	} else {
		p.next()
	}
	if !p.at(SEMI) {
		f.Cond = p.parseExpr()
	}
	p.expect(SEMI)
	if !p.at(RPAREN) {
		f.Post = p.parseExpr()
	}
	p.expect(RPAREN)
	if p.at(LBRACE) {
		f.Body = p.parseBlock()
	} else {
		stmts := p.parseStmt()
		f.Body = &Block{Stmts: stmts, P: f.P}
	}
	return f
}

func (p *Parser) parseDeclNoSemi() []Stmt {
	base := p.parseBaseType()
	var out []Stmt
	for {
		nameTok := p.expect(IDENT)
		typ := &Type{Kind: base}
		var init Expr
		if p.accept(ASSIGN) {
			init = p.parseAssignExpr()
		}
		out = append(out, &DeclStmt{Name: nameTok.Text, Type: typ, Init: init,
			P: nameTok.Pos, ID: p.newID()})
		if !p.accept(COMMA) {
			break
		}
	}
	return out
}

func (p *Parser) parseWhile() *WhileStmt {
	t := p.expect(KwWhile)
	w := &WhileStmt{P: t.Pos}
	p.expect(LPAREN)
	w.Cond = p.parseExpr()
	p.expect(RPAREN)
	if p.at(LBRACE) {
		w.Body = p.parseBlock()
	} else {
		stmts := p.parseStmt()
		w.Body = &Block{Stmts: stmts, P: w.P}
	}
	return w
}

func (p *Parser) parseIf() *IfStmt {
	t := p.expect(KwIf)
	s := &IfStmt{P: t.Pos}
	p.expect(LPAREN)
	s.Cond = p.parseExpr()
	p.expect(RPAREN)
	if p.at(LBRACE) {
		s.Then = p.parseBlock()
	} else {
		stmts := p.parseStmt()
		s.Then = &Block{Stmts: stmts, P: s.P}
	}
	if p.accept(KwElse) {
		if p.at(KwIf) {
			s.Else = p.parseIf()
		} else if p.at(LBRACE) {
			s.Else = p.parseBlock()
		} else {
			stmts := p.parseStmt()
			s.Else = &Block{Stmts: stmts, P: s.P}
		}
	}
	return s
}

// Expression parsing: assignment > ternary > || > && > equality >
// relational > additive > multiplicative > unary > postfix > primary.

func (p *Parser) parseExpr() Expr { return p.parseAssignExpr() }

func (p *Parser) parseAssignExpr() Expr {
	lhs := p.parseTernary()
	switch p.cur().Kind {
	case ASSIGN, ADDASSIGN, SUBASSIGN, MULASSIGN, DIVASSIGN, MODASSIGN:
		op := p.next()
		rhs := p.parseAssignExpr()
		return &AssignExpr{Op: op.Kind, LHS: lhs, RHS: rhs, P: op.Pos}
	}
	return lhs
}

func (p *Parser) parseTernary() Expr {
	c := p.parseBinary(0)
	if p.at(QUESTION) {
		q := p.next()
		t := p.parseAssignExpr()
		p.expect(COLON)
		f := p.parseTernary()
		return &CondExpr{Cond: c, Then: t, Else: f, P: q.Pos}
	}
	return c
}

var binPrec = map[TokenKind]int{
	OROR: 1, ANDAND: 2,
	EQ: 3, NEQ: 3,
	LT: 4, GT: 4, LEQ: 4, GEQ: 4,
	PLUS: 5, MINUS: 5,
	STAR: 6, SLASH: 6, PERCENT: 6,
}

func (p *Parser) parseBinary(minPrec int) Expr {
	lhs := p.parseUnary()
	for {
		prec, ok := binPrec[p.cur().Kind]
		if !ok || prec < minPrec {
			return lhs
		}
		op := p.next()
		rhs := p.parseBinary(prec + 1)
		lhs = &BinExpr{Op: op.Kind, X: lhs, Y: rhs, P: op.Pos}
	}
}

func (p *Parser) parseUnary() Expr {
	switch p.cur().Kind {
	case MINUS, NOT, PLUS, AMP:
		op := p.next()
		x := p.parseUnary()
		if op.Kind == PLUS {
			return x
		}
		return &UnExpr{Op: op.Kind, X: x, P: op.Pos}
	case LPAREN:
		// Cast or parenthesised expression.
		if p.peek().Kind == KwInt || p.peek().Kind == KwDouble || p.peek().Kind == KwFloat {
			t := p.next() // (
			base := p.parseBaseType()
			ptr := p.accept(STAR)
			p.expect(RPAREN)
			x := p.parseUnary()
			return &CastExpr{To: &Type{Kind: base, Ptr: ptr}, X: x, P: t.Pos}
		}
		t := p.next()
		x := p.parseExpr()
		p.expect(RPAREN)
		return p.parsePostfix(&ParenExpr{X: x, P: t.Pos})
	}
	return p.parsePostfix(p.parsePrimary())
}

func (p *Parser) parsePostfix(x Expr) Expr {
	for {
		switch p.cur().Kind {
		case LBRACK:
			t := p.next()
			idx := p.parseExpr()
			p.expect(RBRACK)
			x = &IndexExpr{X: x, Idx: idx, P: t.Pos}
		case INC, DEC:
			t := p.next()
			x = &IncDecExpr{Op: t.Kind, X: x, P: t.Pos}
		default:
			return x
		}
	}
}

func (p *Parser) parsePrimary() Expr {
	switch t := p.cur(); t.Kind {
	case IDENT:
		p.next()
		if p.at(LPAREN) {
			p.next()
			call := &CallExpr{Fun: t.Text, P: t.Pos, ID: p.newID()}
			if !p.at(RPAREN) {
				for {
					call.Args = append(call.Args, p.parseAssignExpr())
					if !p.accept(COMMA) {
						break
					}
				}
			}
			p.expect(RPAREN)
			return call
		}
		return &Ident{Name: t.Text, P: t.Pos, ID: p.newID()}
	case INTLIT:
		p.next()
		v, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil {
			p.diags = append(p.diags, diagf(p.name, t.Pos, "bad int literal %q", t.Text))
		}
		return &IntLit{V: v, P: t.Pos}
	case FLOATLIT:
		p.next()
		v, err := strconv.ParseFloat(t.Text, 64)
		if err != nil {
			p.diags = append(p.diags, diagf(p.name, t.Pos, "bad float literal %q", t.Text))
		}
		return &FloatLit{V: v, Text: t.Text, P: t.Pos}
	default:
		p.errorf("expected expression, found %s", t)
		return &IntLit{V: 0, P: t.Pos}
	}
}
