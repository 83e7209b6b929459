package cminor

import (
	"fmt"
	"strings"
)

// Print renders the file back to C-like source text.
func Print(f *File) string {
	var pr printer
	pr.file(f)
	return pr.b.String()
}

type printer struct {
	b      strings.Builder
	indent int
}

func (pr *printer) line(format string, args ...any) {
	pr.b.WriteString(strings.Repeat("  ", pr.indent))
	fmt.Fprintf(&pr.b, format, args...)
	pr.b.WriteByte('\n')
}

func (pr *printer) file(f *File) {
	for _, g := range f.Globals {
		pr.decl(g)
	}
	for i, fn := range f.Funcs {
		if i > 0 || len(f.Globals) > 0 {
			pr.b.WriteByte('\n')
		}
		pr.fun(fn)
	}
}

func (pr *printer) fun(fn *FuncDecl) {
	for _, p := range fn.Pragmas {
		pr.line("#pragma %s", p.Text)
	}
	params := make([]string, len(fn.Params))
	for i, p := range fn.Params {
		params[i] = typeString(p.Type, p.Name)
	}
	if fn.Body == nil {
		pr.line("%s %s(%s);", typeString(fn.Ret, ""), fn.Name, strings.Join(params, ", "))
		return
	}
	pr.line("%s %s(%s) {", typeString(fn.Ret, ""), fn.Name, strings.Join(params, ", "))
	pr.indent++
	for _, s := range fn.Body.Stmts {
		pr.stmt(s)
	}
	pr.indent--
	pr.line("}")
}

// typeString renders a declaration of name with type t ("double A[n][m]",
// "int i", "double *out").
func typeString(t *Type, name string) string {
	if t == nil {
		return name
	}
	s := t.Kind.String()
	if t.Ptr {
		s += " *" + name
	} else if name != "" {
		s += " " + name
	}
	for _, d := range t.Dims {
		s += "[" + ExprString(d) + "]"
	}
	return s
}

func (pr *printer) decl(d *DeclStmt) {
	if d.Init != nil {
		pr.line("%s = %s;", typeString(d.Type, d.Name), ExprString(d.Init))
	} else {
		pr.line("%s;", typeString(d.Type, d.Name))
	}
}

func (pr *printer) stmt(s Stmt) {
	switch s := s.(type) {
	case *Block:
		pr.line("{")
		pr.indent++
		for _, st := range s.Stmts {
			pr.stmt(st)
		}
		pr.indent--
		pr.line("}")
	case *DeclStmt:
		pr.decl(s)
	case *ExprStmt:
		pr.line("%s;", ExprString(s.X))
	case *ForStmt:
		for _, p := range s.Pragmas {
			pr.line("#pragma %s", p.Text)
		}
		init, cond, post := "", "", ""
		switch in := s.Init.(type) {
		case *DeclStmt:
			init = typeString(in.Type, in.Name)
			if in.Init != nil {
				init += " = " + ExprString(in.Init)
			}
		case *ExprStmt:
			init = ExprString(in.X)
		}
		if s.Cond != nil {
			cond = ExprString(s.Cond)
		}
		if s.Post != nil {
			post = ExprString(s.Post)
		}
		pr.line("for (%s; %s; %s) {", init, cond, post)
		pr.indent++
		for _, st := range s.Body.Stmts {
			pr.stmt(st)
		}
		pr.indent--
		pr.line("}")
	case *WhileStmt:
		pr.line("while (%s) {", ExprString(s.Cond))
		pr.indent++
		for _, st := range s.Body.Stmts {
			pr.stmt(st)
		}
		pr.indent--
		pr.line("}")
	case *IfStmt:
		pr.line("if (%s) {", ExprString(s.Cond))
		pr.indent++
		for _, st := range s.Then.Stmts {
			pr.stmt(st)
		}
		pr.indent--
		switch e := s.Else.(type) {
		case nil:
			pr.line("}")
		case *IfStmt:
			pr.b.WriteString(strings.Repeat("  ", pr.indent))
			pr.b.WriteString("} else ")
			// Render the else-if chain without extra indentation.
			rest := strings.TrimLeft(renderStmt(e, pr.indent), " ")
			pr.b.WriteString(rest)
		case *Block:
			pr.line("} else {")
			pr.indent++
			for _, st := range e.Stmts {
				pr.stmt(st)
			}
			pr.indent--
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
			pr.line("return %s;", ExprString(s.X))
		} else {
			pr.line("return;")
		}
	case *PragmaStmt:
		pr.line("#pragma %s", s.Pragma.Text)
	}
}

func renderStmt(s Stmt, indent int) string {
	var pr printer
	pr.indent = indent
	pr.stmt(s)
	return pr.b.String()
}

// ExprString renders an expression.
func ExprString(e Expr) string {
	switch e := e.(type) {
	case nil:
		return ""
	case *Ident:
		return e.Name
	case *IntLit:
		return fmt.Sprintf("%d", e.V)
	case *FloatLit:
		if e.Text != "" {
			return e.Text
		}
		return fmt.Sprintf("%g", e.V)
	case *BinExpr:
		return fmt.Sprintf("%s %s %s", ExprString(e.X), kindNames[e.Op], ExprString(e.Y))
	case *UnExpr:
		return kindNames[e.Op] + ExprString(e.X)
	case *AssignExpr:
		return fmt.Sprintf("%s %s %s", ExprString(e.LHS), kindNames[e.Op], ExprString(e.RHS))
	case *IncDecExpr:
		return ExprString(e.X) + kindNames[e.Op]
	case *IndexExpr:
		return fmt.Sprintf("%s[%s]", ExprString(e.X), ExprString(e.Idx))
	case *CallExpr:
		args := make([]string, len(e.Args))
		for i, a := range e.Args {
			args[i] = ExprString(a)
		}
		return fmt.Sprintf("%s(%s)", e.Fun, strings.Join(args, ", "))
	case *CondExpr:
		return fmt.Sprintf("%s ? %s : %s", ExprString(e.Cond), ExprString(e.Then), ExprString(e.Else))
	case *ParenExpr:
		return "(" + ExprString(e.X) + ")"
	case *CastExpr:
		return fmt.Sprintf("(%s)%s", typeString(e.To, ""), ExprString(e.X))
	}
	return "?"
}
