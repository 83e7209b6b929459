// Package cminor implements a front end for a C subset ("C-minor") rich
// enough to express the Polybench/C kernels SOCRATES targets: functions,
// multi-dimensional array parameters, for/while/if statements, the usual
// arithmetic and assignment operators, calls, and #pragma lines (OpenMP,
// GCC optimize, Polybench scop markers).
//
// The package is organised as a staged pipeline:
//
//	lexer → parser → resolver → compiler → executor
//
// The lexer and recursive-descent parser produce a typed AST with
// positioned diagnostics (Diag). The resolver (resolve.go) walks the AST
// once, binding every identifier to a numbered frame slot and checking
// arity/rank rules. The compiler (compile.go) lowers resolved functions
// into closure-compiled evaluators over slot-indexed frames, which an
// Instance (engine.go) runs. The original tree-walking
// interpreter (walker.go) survives as the BackendWalker backend and
// serves as the semantics oracle for differential tests and
// benchmarks. A pretty-printer
// renders a file back to source (printer.go).
package cminor

import "fmt"

// TokenKind enumerates lexical token categories.
type TokenKind int

// Token kinds.
const (
	EOF TokenKind = iota
	IDENT
	INTLIT
	FLOATLIT
	STRINGLIT
	PRAGMA // whole "#pragma ..." line, text in Token.Text

	// Keywords.
	KwInt
	KwDouble
	KwFloat
	KwVoid
	KwFor
	KwWhile
	KwIf
	KwElse
	KwReturn
	KwConst
	KwStatic

	// Punctuation and operators.
	LPAREN   // (
	RPAREN   // )
	LBRACE   // {
	RBRACE   // }
	LBRACK   // [
	RBRACK   // ]
	COMMA    // ,
	SEMI     // ;
	QUESTION // ?
	COLON    // :

	ASSIGN    // =
	ADDASSIGN // +=
	SUBASSIGN // -=
	MULASSIGN // *=
	DIVASSIGN // /=
	MODASSIGN // %=
	PLUS      // +
	MINUS     // -
	STAR      // *
	SLASH     // /
	PERCENT   // %
	INC       // ++
	DEC       // --
	EQ        // ==
	NEQ       // !=
	LT        // <
	GT        // >
	LEQ       // <=
	GEQ       // >=
	ANDAND    // &&
	OROR      // ||
	NOT       // !
	AMP       // &
)

var kindNames = map[TokenKind]string{
	EOF: "EOF", IDENT: "identifier", INTLIT: "int literal",
	FLOATLIT: "float literal", STRINGLIT: "string literal", PRAGMA: "#pragma",
	KwInt: "int", KwDouble: "double", KwFloat: "float", KwVoid: "void",
	KwFor: "for", KwWhile: "while", KwIf: "if", KwElse: "else",
	KwReturn: "return", KwConst: "const", KwStatic: "static",
	LPAREN: "(", RPAREN: ")", LBRACE: "{", RBRACE: "}",
	LBRACK: "[", RBRACK: "]", COMMA: ",", SEMI: ";",
	QUESTION: "?", COLON: ":",
	ASSIGN: "=", ADDASSIGN: "+=", SUBASSIGN: "-=", MULASSIGN: "*=",
	DIVASSIGN: "/=", MODASSIGN: "%=",
	PLUS: "+", MINUS: "-", STAR: "*", SLASH: "/", PERCENT: "%",
	INC: "++", DEC: "--",
	EQ: "==", NEQ: "!=", LT: "<", GT: ">", LEQ: "<=", GEQ: ">=",
	ANDAND: "&&", OROR: "||", NOT: "!", AMP: "&",
}

// String returns a human-readable name for the token kind.
func (k TokenKind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("TokenKind(%d)", int(k))
}

var keywords = map[string]TokenKind{
	"int": KwInt, "double": KwDouble, "float": KwFloat, "void": KwVoid,
	"for": KwFor, "while": KwWhile, "if": KwIf, "else": KwElse,
	"return": KwReturn, "const": KwConst, "static": KwStatic,
}

// Pos is a source position (1-based line and column).
type Pos struct {
	Line int
	Col  int
}

// String renders the position as "line:col".
func (p Pos) String() string { return fmt.Sprintf("%d:%d", p.Line, p.Col) }

// Token is a single lexical token.
type Token struct {
	Kind TokenKind
	Text string
	Pos  Pos
}

func (t Token) String() string {
	switch t.Kind {
	case IDENT, INTLIT, FLOATLIT, PRAGMA, STRINGLIT:
		return fmt.Sprintf("%s(%q)", t.Kind, t.Text)
	default:
		return t.Kind.String()
	}
}
