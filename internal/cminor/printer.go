package cminor

import (
	"io"
	"strconv"
	"strings"
)

// Print renders the file back to C-like source text.
func Print(f *File) string {
	var b strings.Builder
	fprint(&b, f)
	return b.String()
}

// fprint writes Print's rendering of f to w a line at a time, without
// building the whole text: Program.SourceHash streams it straight into
// the hash. Its writers, a strings.Builder and a hash.Hash, never
// return an error.
func fprint(w io.Writer, f *File) {
	pr := printer{w: w}
	pr.file(f)
}

// printer renders one line at a time into buf and hands each finished
// line to w.
type printer struct {
	w      io.Writer
	buf    []byte
	indent int
	// inline marks the line in buf as open: the next line continues it
	// ("} else " + "if (...) {") instead of starting indented.
	inline bool
}

// start begins a line: its indentation, unless it continues an open one.
func (pr *printer) start() {
	if !pr.inline {
		for i := 0; i < pr.indent; i++ {
			pr.buf = append(pr.buf, "  "...)
		}
	}
	pr.inline = false
}

// end finishes the line and writes it out.
func (pr *printer) end() {
	pr.buf = append(pr.buf, '\n')
	pr.w.Write(pr.buf)
	pr.buf = pr.buf[:0]
}

// line writes a line holding just s.
func (pr *printer) line(s string) {
	pr.start()
	pr.buf = append(pr.buf, s...)
	pr.end()
}

func (pr *printer) pragma(text string) {
	pr.start()
	pr.buf = append(pr.buf, "#pragma "...)
	pr.buf = append(pr.buf, text...)
	pr.end()
}

func (pr *printer) file(f *File) {
	for _, g := range f.Globals {
		pr.decl(g)
	}
	for i, fn := range f.Funcs {
		if i > 0 || len(f.Globals) > 0 {
			pr.line("")
		}
		pr.fun(fn)
	}
}

func (pr *printer) fun(fn *FuncDecl) {
	for _, p := range fn.Pragmas {
		pr.pragma(p.Text)
	}
	pr.start()
	pr.buf = appendType(pr.buf, fn.Ret, "")
	pr.buf = append(pr.buf, ' ')
	pr.buf = append(pr.buf, fn.Name...)
	pr.buf = append(pr.buf, '(')
	for i, p := range fn.Params {
		if i > 0 {
			pr.buf = append(pr.buf, ", "...)
		}
		pr.buf = appendType(pr.buf, p.Type, p.Name)
	}
	if fn.Body == nil {
		pr.buf = append(pr.buf, ");"...)
		pr.end()
		return
	}
	pr.buf = append(pr.buf, ") {"...)
	pr.end()
	pr.body(fn.Body.Stmts)
	pr.line("}")
}

// body writes stmts one level deeper.
func (pr *printer) body(stmts []Stmt) {
	pr.indent++
	for _, s := range stmts {
		pr.stmt(s)
	}
	pr.indent--
}

// typeString renders a declaration of name with type t ("double A[n][m]",
// "int i", "double *out").
func typeString(t *Type, name string) string {
	return string(appendType(nil, t, name))
}

// appendType appends typeString(t, name) to b.
func appendType(b []byte, t *Type, name string) []byte {
	if t == nil {
		return append(b, name...)
	}
	b = append(b, t.Kind.String()...)
	if t.Ptr {
		b = append(b, " *"...)
		b = append(b, name...)
	} else if name != "" {
		b = append(b, ' ')
		b = append(b, name...)
	}
	for _, d := range t.Dims {
		b = append(b, '[')
		b = appendExpr(b, d)
		b = append(b, ']')
	}
	return b
}

// appendDecl appends a declaration without its semicolon.
func appendDecl(b []byte, d *DeclStmt) []byte {
	b = appendType(b, d.Type, d.Name)
	if d.Init != nil {
		b = append(b, " = "...)
		b = appendExpr(b, d.Init)
	}
	return b
}

func (pr *printer) decl(d *DeclStmt) {
	pr.start()
	pr.buf = appendDecl(pr.buf, d)
	pr.buf = append(pr.buf, ';')
	pr.end()
}

// head writes an opening line: keyword + " (" + x + ") {".
func (pr *printer) head(keyword string, x Expr) {
	pr.start()
	pr.buf = append(pr.buf, keyword...)
	pr.buf = append(pr.buf, " ("...)
	pr.buf = appendExpr(pr.buf, x)
	pr.buf = append(pr.buf, ") {"...)
	pr.end()
}

func (pr *printer) stmt(s Stmt) {
	switch s := s.(type) {
	case *Block:
		pr.line("{")
		pr.body(s.Stmts)
		pr.line("}")
	case *DeclStmt:
		pr.decl(s)
	case *ExprStmt:
		pr.start()
		pr.buf = appendExpr(pr.buf, s.X)
		pr.buf = append(pr.buf, ';')
		pr.end()
	case *ForStmt:
		for _, p := range s.Pragmas {
			pr.pragma(p.Text)
		}
		pr.start()
		pr.buf = append(pr.buf, "for ("...)
		switch in := s.Init.(type) {
		case *DeclStmt:
			pr.buf = appendDecl(pr.buf, in)
		case *ExprStmt:
			pr.buf = appendExpr(pr.buf, in.X)
		}
		pr.buf = append(pr.buf, "; "...)
		pr.buf = appendExpr(pr.buf, s.Cond)
		pr.buf = append(pr.buf, "; "...)
		pr.buf = appendExpr(pr.buf, s.Post)
		pr.buf = append(pr.buf, ") {"...)
		pr.end()
		pr.body(s.Body.Stmts)
		pr.line("}")
	case *WhileStmt:
		pr.head("while", s.Cond)
		pr.body(s.Body.Stmts)
		pr.line("}")
	case *IfStmt:
		pr.head("if", s.Cond)
		pr.body(s.Then.Stmts)
		switch e := s.Else.(type) {
		case nil:
			pr.line("}")
		case *IfStmt:
			// The else-if chain continues on the closing brace's line.
			pr.start()
			pr.buf = append(pr.buf, "} else "...)
			pr.inline = true
			pr.stmt(e)
		case *Block:
			pr.line("} else {")
			pr.body(e.Stmts)
			pr.line("}")
		default:
			pr.line("} else {")
			pr.indent++
			pr.stmt(e)
			pr.indent--
			pr.line("}")
		}
	case *ReturnStmt:
		if s.X != nil {
			pr.start()
			pr.buf = append(pr.buf, "return "...)
			pr.buf = appendExpr(pr.buf, s.X)
			pr.buf = append(pr.buf, ';')
			pr.end()
		} else {
			pr.line("return;")
		}
	case *PragmaStmt:
		pr.pragma(s.Pragma.Text)
	}
}

// ExprString renders an expression.
func ExprString(e Expr) string {
	return string(appendExpr(nil, e))
}

// appendExpr appends ExprString(e) to b.
func appendExpr(b []byte, e Expr) []byte {
	switch e := e.(type) {
	case nil:
		return b
	case *Ident:
		return append(b, e.Name...)
	case *IntLit:
		return strconv.AppendInt(b, e.V, 10)
	case *FloatLit:
		if e.Text != "" {
			return append(b, e.Text...)
		}
		return strconv.AppendFloat(b, e.V, 'g', -1, 64)
	case *BinExpr:
		return appendInfix(b, e.X, e.Op, e.Y)
	case *UnExpr:
		b = append(b, kindNames[e.Op]...)
		if x, ok := e.X.(*UnExpr); ok && x.Op == e.Op && e.Op != NOT {
			b = append(b, ' ') // "- -x" and "& &x": "--" and "&&" are tokens
		}
		return appendExpr(b, e.X)
	case *AssignExpr:
		return appendInfix(b, e.LHS, e.Op, e.RHS)
	case *IncDecExpr:
		return append(appendExpr(b, e.X), kindNames[e.Op]...)
	case *IndexExpr:
		b = append(appendExpr(b, e.X), '[')
		return append(appendExpr(b, e.Idx), ']')
	case *CallExpr:
		b = append(append(b, e.Fun...), '(')
		for i, a := range e.Args {
			if i > 0 {
				b = append(b, ", "...)
			}
			b = appendExpr(b, a)
		}
		return append(b, ')')
	case *CondExpr:
		b = append(appendExpr(b, e.Cond), " ? "...)
		b = append(appendExpr(b, e.Then), " : "...)
		return appendExpr(b, e.Else)
	case *ParenExpr:
		return append(appendExpr(append(b, '('), e.X), ')')
	case *CastExpr:
		b = append(appendType(append(b, '('), e.To, ""), ')')
		return appendExpr(b, e.X)
	}
	return append(b, '?')
}

// appendInfix appends "x op y".
func appendInfix(b []byte, x Expr, op TokenKind, y Expr) []byte {
	b = append(appendExpr(b, x), ' ')
	b = append(append(b, kindNames[op]...), ' ')
	return appendExpr(b, y)
}
