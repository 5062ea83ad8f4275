// Package bsl implements a small systems language ("B-minus Systems
// Language") compiling to the simulated machine, via the assembler. It
// exists so the repository's examples and tests can express realistic
// workloads — the programs /proc controls and debuggers debug — as readable
// source instead of assembly, with function symbols flowing through to the
// debugger for free.
//
// The language is deliberately tiny: 32-bit integers, globals (scalars,
// arrays, strings), functions with parameters and locals, if/while/return,
// the usual expression operators, and a sys(num, args...) builtin that is
// the system call interface. Example:
//
//	var greeting = "hello from bsl\n";
//
//	func add(a, b) { return a + b; }
//
//	func main() {
//	    var fd = sys(8, "/tmp/out", 438);   // creat
//	    sys(4, fd, greeting, 15);           // write
//	    return add(40, 2);                  // exit status
//	}
package bsl

import "fmt"

// tokKind classifies tokens.
type tokKind int

const (
	tEOF tokKind = iota
	tIdent
	tNum
	tStr
	tPunct // operators and separators, in tok.text
)

type token struct {
	kind tokKind
	text string
	num  uint32
	line int
}

// Error is a compile error with a source line.
type Error struct {
	Line int
	Msg  string
}

// Error implements error.
func (e *Error) Error() string { return fmt.Sprintf("bsl: line %d: %s", e.Line, e.Msg) }

type lexer struct {
	src  string
	pos  int
	line int
	toks []token
}

// lex tokenizes the source.
func lex(src string) ([]token, error) {
	lx := &lexer{src: src, line: 1}
	for {
		t, err := lx.next()
		if err != nil {
			return nil, err
		}
		lx.toks = append(lx.toks, t)
		if t.kind == tEOF {
			return lx.toks, nil
		}
	}
}

func (lx *lexer) errf(format string, args ...interface{}) error {
	return &Error{Line: lx.line, Msg: fmt.Sprintf(format, args...)}
}

func (lx *lexer) next() (token, error) {
	// Skip whitespace and comments.
	for lx.pos < len(lx.src) {
		c := lx.src[lx.pos]
		switch {
		case c == '\n':
			lx.line++
			lx.pos++
		case c == ' ' || c == '\t' || c == '\r':
			lx.pos++
		case c == '/' && lx.pos+1 < len(lx.src) && lx.src[lx.pos+1] == '/':
			for lx.pos < len(lx.src) && lx.src[lx.pos] != '\n' {
				lx.pos++
			}
		default:
			goto body
		}
	}
body:
	if lx.pos >= len(lx.src) {
		return token{kind: tEOF, line: lx.line}, nil
	}
	c := lx.src[lx.pos]
	start := lx.pos
	switch {
	case isAlpha(c):
		for lx.pos < len(lx.src) && (isAlpha(lx.src[lx.pos]) || isDigit(lx.src[lx.pos])) {
			lx.pos++
		}
		return token{kind: tIdent, text: lx.src[start:lx.pos], line: lx.line}, nil
	case isDigit(c):
		base := uint32(10)
		if c == '0' && lx.pos+1 < len(lx.src) && (lx.src[lx.pos+1] == 'x' || lx.src[lx.pos+1] == 'X') {
			base = 16
			lx.pos += 2
			start = lx.pos
		}
		var v uint64
		for lx.pos < len(lx.src) {
			d := hexVal(lx.src[lx.pos])
			if d < 0 || uint32(d) >= base {
				break
			}
			v = v*uint64(base) + uint64(d)
			if v > 0xFFFFFFFF {
				return token{}, lx.errf("number too large")
			}
			lx.pos++
		}
		if lx.pos == start {
			return token{}, lx.errf("malformed number")
		}
		return token{kind: tNum, num: uint32(v), line: lx.line}, nil
	case c == '"':
		lx.pos++
		var out []byte
		for {
			if lx.pos >= len(lx.src) {
				return token{}, lx.errf("unterminated string")
			}
			ch := lx.src[lx.pos]
			lx.pos++
			if ch == '"' {
				break
			}
			if ch == '\\' {
				if lx.pos >= len(lx.src) {
					return token{}, lx.errf("bad escape")
				}
				esc := lx.src[lx.pos]
				lx.pos++
				switch esc {
				case 'n':
					ch = '\n'
				case 't':
					ch = '\t'
				case '0':
					ch = 0
				case '\\':
					ch = '\\'
				case '"':
					ch = '"'
				default:
					return token{}, lx.errf("bad escape \\%c", esc)
				}
			}
			out = append(out, ch)
		}
		return token{kind: tStr, text: string(out), line: lx.line}, nil
	case c == '\'':
		if lx.pos+2 >= len(lx.src) {
			return token{}, lx.errf("bad character literal")
		}
		ch := lx.src[lx.pos+1]
		end := lx.pos + 2
		if ch == '\\' {
			if lx.pos+3 >= len(lx.src) {
				return token{}, lx.errf("bad character literal")
			}
			switch lx.src[lx.pos+2] {
			case 'n':
				ch = '\n'
			case 't':
				ch = '\t'
			case '0':
				ch = 0
			case '\\':
				ch = '\\'
			case '\'':
				ch = '\''
			default:
				return token{}, lx.errf("bad character escape")
			}
			end = lx.pos + 3
		}
		if end >= len(lx.src) || lx.src[end] != '\'' {
			return token{}, lx.errf("unterminated character literal")
		}
		lx.pos = end + 1
		return token{kind: tNum, num: uint32(ch), line: lx.line}, nil
	}
	// Multi-character operators first.
	two := ""
	if lx.pos+1 < len(lx.src) {
		two = lx.src[lx.pos : lx.pos+2]
	}
	switch two {
	case "==", "!=", "<=", ">=", "&&", "||", "<<", ">>":
		lx.pos += 2
		return token{kind: tPunct, text: two, line: lx.line}, nil
	}
	switch c {
	case '+', '-', '*', '/', '%', '&', '|', '^', '~', '!', '<', '>',
		'=', '(', ')', '{', '}', '[', ']', ',', ';':
		lx.pos++
		return token{kind: tPunct, text: string(c), line: lx.line}, nil
	}
	return token{}, lx.errf("unexpected character %q", c)
}

func isAlpha(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func hexVal(c byte) int {
	switch {
	case c >= '0' && c <= '9':
		return int(c - '0')
	case c >= 'a' && c <= 'f':
		return int(c-'a') + 10
	case c >= 'A' && c <= 'F':
		return int(c-'A') + 10
	}
	return -1
}
