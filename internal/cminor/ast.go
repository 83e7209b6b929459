package cminor

// Node is implemented by every AST node.
type Node interface {
	Pos() Pos
}

// NodeID identifies an annotatable AST node (Ident, DeclStmt, CallExpr)
// within its File. IDs are assigned densely by the parser so semantic
// passes can record their results in side tables indexed by ID instead
// of writing into the tree — the AST stays immutable after parse, which
// is what lets one *File be compiled (and one *Program be shared)
// concurrently.
type NodeID int32

// BasicKind enumerates scalar base types.
type BasicKind int

// Base type kinds.
const (
	Void BasicKind = iota
	Int
	Double
)

// String names the base kind using C spelling.
func (k BasicKind) String() string {
	switch k {
	case Void:
		return "void"
	case Int:
		return "int"
	case Double:
		return "double"
	}
	return "?"
}

// Type describes a (possibly array or pointer) C-minor type. Dims holds
// the array dimension expressions, outermost first; an empty Dims means a
// scalar. Ptr marks a single level of pointer indirection (used for
// output scalar parameters such as "double *out").
type Type struct {
	Kind BasicKind
	Dims []Expr
	Ptr  bool
}

// IsArray reports whether t has at least one array dimension.
func (t *Type) IsArray() bool { return t != nil && len(t.Dims) > 0 }

// Pragma is a "#pragma ..." line (text excludes the "#pragma" prefix).
type Pragma struct {
	Text string
	P    Pos
}

// Pos returns the pragma position.
func (p *Pragma) Pos() Pos { return p.P }

// File is a parsed translation unit. NumIDs is the number of NodeIDs
// the parser assigned; side tables produced by the semantic passes are
// sized by it.
type File struct {
	Name    string
	Funcs   []*FuncDecl
	Globals []*DeclStmt
	P       Pos
	NumIDs  int
}

// Pos returns the file position.
func (f *File) Pos() Pos { return f.P }

// Func returns the function with the given name, or nil.
func (f *File) Func(name string) *FuncDecl {
	for _, fn := range f.Funcs {
		if fn.Name == name {
			return fn
		}
	}
	return nil
}

// Param is a function parameter.
type Param struct {
	Name string
	Type *Type
	P    Pos
}

// Pos returns the parameter position.
func (p *Param) Pos() Pos { return p.P }

// FuncDecl is a function definition. Pragmas holds #pragma lines
// immediately preceding the function (e.g. GCC optimize directives
// inserted by the weaver).
type FuncDecl struct {
	Name    string
	Params  []*Param
	Ret     *Type
	Body    *Block
	Pragmas []*Pragma
	P       Pos
}

// Pos returns the function position.
func (f *FuncDecl) Pos() Pos { return f.P }

// Stmt is implemented by statement nodes.
type Stmt interface {
	Node
	stmtNode()
}

// Block is a brace-delimited statement list.
type Block struct {
	Stmts []Stmt
	P     Pos
}

// DeclStmt declares a single variable (comma declarations are split by
// the parser). The resolver records the declared slot in the
// ResolvedFile's side table under ID.
type DeclStmt struct {
	Name string
	Type *Type
	Init Expr
	P    Pos
	ID   NodeID
}

// ExprStmt evaluates an expression for its side effects.
type ExprStmt struct {
	X Expr
	P Pos
}

// ForStmt is a C for loop. Pragmas holds the #pragma lines immediately
// preceding the loop (OpenMP directives attach here).
type ForStmt struct {
	Init    Stmt // nil, *DeclStmt or *ExprStmt
	Cond    Expr
	Post    Expr
	Body    *Block
	Pragmas []*Pragma
	P       Pos
}

// WhileStmt is a while loop.
type WhileStmt struct {
	Cond Expr
	Body *Block
	P    Pos
}

// IfStmt is an if/else statement.
type IfStmt struct {
	Cond Expr
	Then *Block
	Else Stmt // nil, *Block or *IfStmt
	P    Pos
}

// ReturnStmt returns from the enclosing function.
type ReturnStmt struct {
	X Expr // may be nil
	P Pos
}

// PragmaStmt is a standalone pragma in statement position (e.g. the
// Polybench "#pragma scop" markers).
type PragmaStmt struct {
	Pragma *Pragma
	P      Pos
}

// Pos implementations.
func (s *Block) Pos() Pos      { return s.P }
func (s *DeclStmt) Pos() Pos   { return s.P }
func (s *ExprStmt) Pos() Pos   { return s.P }
func (s *ForStmt) Pos() Pos    { return s.P }
func (s *WhileStmt) Pos() Pos  { return s.P }
func (s *IfStmt) Pos() Pos     { return s.P }
func (s *ReturnStmt) Pos() Pos { return s.P }
func (s *PragmaStmt) Pos() Pos { return s.P }

func (*Block) stmtNode()      {}
func (*DeclStmt) stmtNode()   {}
func (*ExprStmt) stmtNode()   {}
func (*ForStmt) stmtNode()    {}
func (*WhileStmt) stmtNode()  {}
func (*IfStmt) stmtNode()     {}
func (*ReturnStmt) stmtNode() {}
func (*PragmaStmt) stmtNode() {}

// Expr is implemented by expression nodes.
type Expr interface {
	Node
	exprNode()
}

// VarKind classifies what a resolved identifier refers to and which slot
// space of the execution frame holds it.
type VarKind uint8

// Variable kinds assigned by the resolver.
const (
	VarUnresolved   VarKind = iota
	VarScalar               // by-value scalar in the frame's scalar slots
	VarCell                 // pointer scalar sharing a caller-owned cell
	VarArray                // array in the frame's array slots
	VarGlobalScalar         // scalar in the interpreter's global store
	VarGlobalArray          // array in the interpreter's global store
)

// String names the variable kind.
func (k VarKind) String() string {
	switch k {
	case VarScalar:
		return "scalar"
	case VarCell:
		return "pointer scalar"
	case VarArray:
		return "array"
	case VarGlobalScalar:
		return "global scalar"
	case VarGlobalArray:
		return "global array"
	}
	return "unresolved"
}

// VarRef is a resolved slot reference: the storage class of a variable
// plus its index within that class's slot space. The resolver records a
// VarRef for every Ident and DeclStmt in a side table keyed by NodeID
// (see ResolvedFile.RefOf) so the compiler can lower every access to an
// array-indexed frame read instead of a map lookup — without mutating
// the AST. Base is the declared base kind (int/double): the static kind
// of every read of the variable and the kind every store into it
// converts to (typecheck.go).
type VarRef struct {
	Kind VarKind
	Slot int
	Base BasicKind
}

// Ident is a variable reference; its resolved slot lives in the
// ResolvedFile's side table under ID.
type Ident struct {
	Name string
	P    Pos
	ID   NodeID
}

// IntLit is an integer literal.
type IntLit struct {
	V int64
	P Pos
}

// FloatLit is a floating-point literal. Text preserves the source
// spelling for round-trip printing.
type FloatLit struct {
	V    float64
	Text string
	P    Pos
}

// BinExpr is a binary operation; Op is one of + - * / % == != < > <= >=
// && ||.
type BinExpr struct {
	Op   TokenKind
	X, Y Expr
	P    Pos
}

// UnExpr is a unary operation; Op is one of - ! +.
type UnExpr struct {
	Op TokenKind
	X  Expr
	P  Pos
}

// AssignExpr assigns RHS to LHS; Op is ASSIGN or one of the compound
// assignment operators.
type AssignExpr struct {
	Op  TokenKind
	LHS Expr
	RHS Expr
	P   Pos
}

// IncDecExpr is i++ / i-- (postfix).
type IncDecExpr struct {
	Op TokenKind // INC or DEC
	X  Expr
	P  Pos
}

// IndexExpr is a single-dimension subscript; multi-dimensional accesses
// chain IndexExprs with the outermost dimension at the root's X.
type IndexExpr struct {
	X   Expr
	Idx Expr
	P   Pos
}

// CallExpr is a function call by name. Whether Fun names a math builtin
// rather than a user function is recorded by the resolver in a side
// table under ID.
type CallExpr struct {
	Fun  string
	Args []Expr
	P    Pos
	ID   NodeID
}

// CondExpr is the ternary operator c ? t : f.
type CondExpr struct {
	Cond, Then, Else Expr
	P                Pos
}

// ParenExpr preserves explicit parentheses.
type ParenExpr struct {
	X Expr
	P Pos
}

// CastExpr is a C cast such as (double)x.
type CastExpr struct {
	To *Type
	X  Expr
	P  Pos
}

// Pos implementations.
func (e *Ident) Pos() Pos      { return e.P }
func (e *IntLit) Pos() Pos     { return e.P }
func (e *FloatLit) Pos() Pos   { return e.P }
func (e *BinExpr) Pos() Pos    { return e.P }
func (e *UnExpr) Pos() Pos     { return e.P }
func (e *AssignExpr) Pos() Pos { return e.P }
func (e *IncDecExpr) Pos() Pos { return e.P }
func (e *IndexExpr) Pos() Pos  { return e.P }
func (e *CallExpr) Pos() Pos   { return e.P }
func (e *CondExpr) Pos() Pos   { return e.P }
func (e *ParenExpr) Pos() Pos  { return e.P }
func (e *CastExpr) Pos() Pos   { return e.P }

func (*Ident) exprNode()      {}
func (*IntLit) exprNode()     {}
func (*FloatLit) exprNode()   {}
func (*BinExpr) exprNode()    {}
func (*UnExpr) exprNode()     {}
func (*AssignExpr) exprNode() {}
func (*IncDecExpr) exprNode() {}
func (*IndexExpr) exprNode()  {}
func (*CallExpr) exprNode()   {}
func (*CondExpr) exprNode()   {}
func (*ParenExpr) exprNode()  {}
func (*CastExpr) exprNode()   {}

// Walk calls fn for every node in the subtree rooted at n, parents before
// children. If fn returns false for a node, its children are skipped.
func Walk(n Node, fn func(Node) bool) {
	if n == nil || !fn(n) {
		return
	}
	switch n := n.(type) {
	case *File:
		for _, g := range n.Globals {
			Walk(g, fn)
		}
		for _, f := range n.Funcs {
			Walk(f, fn)
		}
	case *FuncDecl:
		for _, p := range n.Params {
			Walk(p, fn)
		}
		if n.Body != nil {
			Walk(n.Body, fn)
		}
	case *Param, *Pragma, *Ident, *IntLit, *FloatLit:
	case *Block:
		for _, s := range n.Stmts {
			Walk(s, fn)
		}
	case *DeclStmt:
		for _, d := range n.Type.Dims {
			Walk(d, fn)
		}
		if n.Init != nil {
			Walk(n.Init, fn)
		}
	case *ExprStmt:
		Walk(n.X, fn)
	case *ForStmt:
		for _, p := range n.Pragmas {
			Walk(p, fn)
		}
		if n.Init != nil {
			Walk(n.Init, fn)
		}
		if n.Cond != nil {
			Walk(n.Cond, fn)
		}
		if n.Post != nil {
			Walk(n.Post, fn)
		}
		if n.Body != nil {
			Walk(n.Body, fn)
		}
	case *WhileStmt:
		Walk(n.Cond, fn)
		if n.Body != nil {
			Walk(n.Body, fn)
		}
	case *IfStmt:
		Walk(n.Cond, fn)
		if n.Then != nil {
			Walk(n.Then, fn)
		}
		if n.Else != nil {
			Walk(n.Else, fn)
		}
	case *ReturnStmt:
		if n.X != nil {
			Walk(n.X, fn)
		}
	case *PragmaStmt:
		Walk(n.Pragma, fn)
	case *BinExpr:
		Walk(n.X, fn)
		Walk(n.Y, fn)
	case *UnExpr:
		Walk(n.X, fn)
	case *AssignExpr:
		Walk(n.LHS, fn)
		Walk(n.RHS, fn)
	case *IncDecExpr:
		Walk(n.X, fn)
	case *IndexExpr:
		Walk(n.X, fn)
		Walk(n.Idx, fn)
	case *CallExpr:
		for _, a := range n.Args {
			Walk(a, fn)
		}
	case *CondExpr:
		Walk(n.Cond, fn)
		Walk(n.Then, fn)
		Walk(n.Else, fn)
	case *ParenExpr:
		Walk(n.X, fn)
	case *CastExpr:
		Walk(n.X, fn)
	}
}
