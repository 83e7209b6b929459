package cminor

import "strings"

// Lexer turns C-minor source text into a token stream.
type Lexer struct {
	src   string
	file  string
	off   int
	line  int
	col   int
	diags DiagList
}

// NewFileLexer returns a lexer over src whose diagnostics carry the given
// file name.
func NewFileLexer(file, src string) *Lexer {
	return &Lexer{src: src, file: file, line: 1, col: 1}
}

// Errors reports the positioned lexical diagnostics accumulated so far.
func (lx *Lexer) Errors() DiagList { return lx.diags }

func (lx *Lexer) errorf(p Pos, format string, args ...any) {
	lx.diags = append(lx.diags, diagf(lx.file, p, format, args...))
}

func (lx *Lexer) peek() byte {
	if lx.off >= len(lx.src) {
		return 0
	}
	return lx.src[lx.off]
}

func (lx *Lexer) peek2() byte {
	if lx.off+1 >= len(lx.src) {
		return 0
	}
	return lx.src[lx.off+1]
}

func (lx *Lexer) advance() byte {
	c := lx.src[lx.off]
	lx.off++
	if c == '\n' {
		lx.line++
		lx.col = 1
	} else {
		lx.col++
	}
	return c
}

func (lx *Lexer) pos() Pos { return Pos{Line: lx.line, Col: lx.col} }

func isDigit(c byte) bool { return c >= '0' && c <= '9' }
func isAlpha(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}
func isAlnum(c byte) bool { return isAlpha(c) || isDigit(c) }

// skipSpaceAndComments consumes whitespace, // and /* */ comments, and
// backslash line continuations.
func (lx *Lexer) skipSpaceAndComments() {
	for lx.off < len(lx.src) {
		c := lx.peek()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			lx.advance()
		case c == '\\' && lx.peek2() == '\n':
			lx.advance()
			lx.advance()
		case c == '/' && lx.peek2() == '/':
			for lx.off < len(lx.src) && lx.peek() != '\n' {
				lx.advance()
			}
		case c == '/' && lx.peek2() == '*':
			p := lx.pos()
			lx.advance()
			lx.advance()
			closed := false
			for lx.off < len(lx.src) {
				if lx.peek() == '*' && lx.peek2() == '/' {
					lx.advance()
					lx.advance()
					closed = true
					break
				}
				lx.advance()
			}
			if !closed {
				lx.errorf(p, "unterminated block comment")
			}
		default:
			return
		}
	}
}

// Next returns the next token.
func (lx *Lexer) Next() Token {
	lx.skipSpaceAndComments()
	p := lx.pos()
	if lx.off >= len(lx.src) {
		return Token{Kind: EOF, Pos: p}
	}
	c := lx.peek()

	// Preprocessor: only #pragma survives; other directives are skipped
	// line-by-line (Polybench sources carry includes and defines that the
	// front end does not need).
	if c == '#' {
		start := lx.off
		for lx.off < len(lx.src) && lx.peek() != '\n' {
			// Honour line continuations inside directives.
			if lx.peek() == '\\' && lx.peek2() == '\n' {
				lx.advance()
				lx.advance()
				continue
			}
			lx.advance()
		}
		text := strings.TrimSpace(lx.src[start:lx.off])
		if strings.HasPrefix(text, "#pragma") {
			body := strings.TrimSpace(strings.TrimPrefix(text, "#pragma"))
			return Token{Kind: PRAGMA, Text: body, Pos: p}
		}
		return lx.Next()
	}

	if isDigit(c) || (c == '.' && isDigit(lx.peek2())) {
		return lx.lexNumber(p)
	}
	if isAlpha(c) {
		start := lx.off
		for lx.off < len(lx.src) && isAlnum(lx.peek()) {
			lx.advance()
		}
		text := lx.src[start:lx.off]
		if kw, ok := keywords[text]; ok {
			return Token{Kind: kw, Text: text, Pos: p}
		}
		return Token{Kind: IDENT, Text: text, Pos: p}
	}
	if c == '"' {
		lx.advance()
		start := lx.off
		for lx.off < len(lx.src) && lx.peek() != '"' {
			if lx.peek() == '\\' && lx.off+1 < len(lx.src) {
				lx.advance() // an escape; a backslash at the end is plain
			}
			lx.advance()
		}
		text := lx.src[start:lx.off]
		if lx.off < len(lx.src) {
			lx.advance()
		} else {
			lx.errorf(p, "unterminated string literal")
		}
		return Token{Kind: STRINGLIT, Text: text, Pos: p}
	}

	two := func(k TokenKind) Token {
		lx.advance()
		lx.advance()
		return Token{Kind: k, Text: kindNames[k], Pos: p}
	}
	one := func(k TokenKind) Token {
		lx.advance()
		return Token{Kind: k, Text: kindNames[k], Pos: p}
	}

	d := lx.peek2()
	switch c {
	case '(':
		return one(LPAREN)
	case ')':
		return one(RPAREN)
	case '{':
		return one(LBRACE)
	case '}':
		return one(RBRACE)
	case '[':
		return one(LBRACK)
	case ']':
		return one(RBRACK)
	case ',':
		return one(COMMA)
	case ';':
		return one(SEMI)
	case '?':
		return one(QUESTION)
	case ':':
		return one(COLON)
	case '+':
		if d == '=' {
			return two(ADDASSIGN)
		}
		if d == '+' {
			return two(INC)
		}
		return one(PLUS)
	case '-':
		if d == '=' {
			return two(SUBASSIGN)
		}
		if d == '-' {
			return two(DEC)
		}
		return one(MINUS)
	case '*':
		if d == '=' {
			return two(MULASSIGN)
		}
		return one(STAR)
	case '/':
		if d == '=' {
			return two(DIVASSIGN)
		}
		return one(SLASH)
	case '%':
		if d == '=' {
			return two(MODASSIGN)
		}
		return one(PERCENT)
	case '=':
		if d == '=' {
			return two(EQ)
		}
		return one(ASSIGN)
	case '!':
		if d == '=' {
			return two(NEQ)
		}
		return one(NOT)
	case '<':
		if d == '=' {
			return two(LEQ)
		}
		return one(LT)
	case '>':
		if d == '=' {
			return two(GEQ)
		}
		return one(GT)
	case '&':
		if d == '&' {
			return two(ANDAND)
		}
		return one(AMP)
	case '|':
		if d == '|' {
			return two(OROR)
		}
	}
	lx.errorf(p, "unexpected character %q", string(c))
	lx.advance()
	return lx.Next()
}

func (lx *Lexer) lexNumber(p Pos) Token {
	start := lx.off
	isFloat := false
	for lx.off < len(lx.src) && isDigit(lx.peek()) {
		lx.advance()
	}
	if lx.off < len(lx.src) && lx.peek() == '.' {
		isFloat = true
		lx.advance()
		for lx.off < len(lx.src) && isDigit(lx.peek()) {
			lx.advance()
		}
	}
	if lx.off < len(lx.src) && (lx.peek() == 'e' || lx.peek() == 'E') {
		save := lx.off
		lx.advance()
		if lx.peek() == '+' || lx.peek() == '-' {
			lx.advance()
		}
		if isDigit(lx.peek()) {
			isFloat = true
			for lx.off < len(lx.src) && isDigit(lx.peek()) {
				lx.advance()
			}
		} else {
			lx.off = save
		}
	}
	// Suffixes (f, L, u) are accepted and discarded.
	for lx.off < len(lx.src) {
		switch lx.peek() {
		case 'f', 'F', 'l', 'L', 'u', 'U':
			if lx.peek() == 'f' || lx.peek() == 'F' {
				isFloat = true
			}
			lx.advance()
			continue
		}
		break
	}
	text := strings.TrimRight(lx.src[start:lx.off], "fFlLuU")
	k := INTLIT
	if isFloat {
		k = FLOATLIT
	}
	return Token{Kind: k, Text: text, Pos: p}
}

// Tokenize lexes the whole input and returns the token slice (terminated
// by an EOF token) plus any lexical diagnostics. Parse does not use it:
// it pulls tokens from a Lexer one at a time.
func Tokenize(src string) ([]Token, DiagList) {
	lx := NewFileLexer("", src)
	var toks []Token
	for {
		t := lx.Next()
		toks = append(toks, t)
		if t.Kind == EOF {
			break
		}
	}
	return toks, lx.Errors()
}
