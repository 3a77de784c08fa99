// Package codec implements the human-readable CMIF document text format and
// a compact binary form. Section 5 of the paper: "The tree is a
// human-readable document that can be passed from one location to another
// with or without the underlying data."
//
// Grammar (see also Figure 6 of the paper for node shapes):
//
//	document := node
//	node     := '(' NODETYPE element* ')'     NODETYPE ∈ {seq, par, ext, imm}
//	element  := node | pair
//	pair     := '(' NAME value* ')'           NAME is any identifier except a node type
//	value    := IDENT | NUMBER | STRING | list
//	list     := '[' item* ']'
//	item     := value | pair                  pairs inside lists are named items
//
// A pair with no values carries the empty list; a pair with several values
// carries an anonymous list of them. Numbers may carry the media-dependent
// unit suffixes of package units ("40ms", "25fr"). Comments run from ';' to
// end of line. Immediate-node payloads are carried by the reserved "data"
// (UTF-8 text) or "datahex" (binary) attributes.
package codec

import (
	"fmt"
	"strings"
	"unicode/utf8"
)

// tokenKind enumerates lexical token types.
type tokenKind int

const (
	tokEOF tokenKind = iota
	tokLParen
	tokRParen
	tokLBrack
	tokRBrack
	tokIdent
	tokNumber
	tokString
)

func (k tokenKind) String() string {
	switch k {
	case tokEOF:
		return "end of input"
	case tokLParen:
		return "'('"
	case tokRParen:
		return "')'"
	case tokLBrack:
		return "'['"
	case tokRBrack:
		return "']'"
	case tokIdent:
		return "identifier"
	case tokNumber:
		return "number"
	case tokString:
		return "string"
	default:
		return fmt.Sprintf("token(%d)", int(k))
	}
}

// Pos is a line/column source position (1-based).
type Pos struct {
	Line, Col int
}

func (p Pos) String() string { return fmt.Sprintf("%d:%d", p.Line, p.Col) }

// token is one lexical token with its source text and position.
type token struct {
	kind tokenKind
	text string // identifier text, raw number text, or decoded string body
	pos  Pos
}

// SyntaxError reports a lexical or grammatical error with its position.
type SyntaxError struct {
	Pos Pos
	Msg string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("codec: %v: %s", e.Pos, e.Msg)
}

// lexer produces tokens from document text.
type lexer struct {
	src  string
	off  int
	line int
	col  int
}

func newLexer(src string) *lexer {
	return &lexer{src: src, line: 1, col: 1}
}

func (l *lexer) errorf(pos Pos, format string, args ...interface{}) *SyntaxError {
	return &SyntaxError{Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

// peekByte returns the current byte without consuming, or 0 at EOF.
func (l *lexer) peekByte() byte {
	if l.off >= len(l.src) {
		return 0
	}
	return l.src[l.off]
}

// advance consumes one byte, tracking position.
func (l *lexer) advance() byte {
	c := l.src[l.off]
	l.off++
	if c == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return c
}

func (l *lexer) pos() Pos { return Pos{Line: l.line, Col: l.col} }

// skipSpace consumes whitespace and ';' comments.
func (l *lexer) skipSpace() {
	for l.off < len(l.src) {
		c := l.peekByte()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			l.advance()
		case c == ';':
			for l.off < len(l.src) && l.peekByte() != '\n' {
				l.advance()
			}
		default:
			return
		}
	}
}

// isIdentStart reports whether c can start an identifier.
func isIdentStart(c byte) bool {
	return c == '_' || c == '-' || c == '.' || c == '/' || c == '#' ||
		('a' <= c && c <= 'z') || ('A' <= c && c <= 'Z') || c >= utf8.RuneSelf
}

// isIdentCont reports whether c can continue an identifier.
func isIdentCont(c byte) bool {
	return isIdentStart(c) || ('0' <= c && c <= '9') || c == '*' || c == '+'
}

// next returns the next token.
func (l *lexer) next() (token, error) {
	l.skipSpace()
	start := l.pos()
	if l.off >= len(l.src) {
		return token{kind: tokEOF, pos: start}, nil
	}
	c := l.peekByte()
	switch {
	case c == '(':
		l.advance()
		return token{kind: tokLParen, pos: start}, nil
	case c == ')':
		l.advance()
		return token{kind: tokRParen, pos: start}, nil
	case c == '[':
		l.advance()
		return token{kind: tokLBrack, pos: start}, nil
	case c == ']':
		l.advance()
		return token{kind: tokRBrack, pos: start}, nil
	case c == '"':
		return l.lexString(start)
	case c == '+' || c == '-' || ('0' <= c && c <= '9'):
		return l.lexNumberOrIdent(start)
	case isIdentStart(c):
		return l.lexIdent(start), nil
	default:
		l.advance()
		return token{}, l.errorf(start, "unexpected character %q", rune(c))
	}
}

// lexIdent consumes an identifier.
func (l *lexer) lexIdent(start Pos) token {
	from := l.off
	for l.off < len(l.src) && isIdentCont(l.peekByte()) {
		l.advance()
	}
	return token{kind: tokIdent, text: l.src[from:l.off], pos: start}
}

// lexNumberOrIdent consumes a number (with optional sign and unit suffix).
// A bare '-' or '+' followed by identifier characters is an identifier
// (e.g. "-" used as the empty-ID rendering).
func (l *lexer) lexNumberOrIdent(start Pos) (token, error) {
	from := l.off
	c := l.peekByte()
	if c == '+' || c == '-' {
		l.advance()
		next := l.peekByte()
		if next < '0' || next > '9' {
			// Sign with no digits: lex the rest as an identifier.
			for l.off < len(l.src) && isIdentCont(l.peekByte()) {
				l.advance()
			}
			return token{kind: tokIdent, text: l.src[from:l.off], pos: start}, nil
		}
	}
	for l.off < len(l.src) && l.peekByte() >= '0' && l.peekByte() <= '9' {
		l.advance()
	}
	// Unit suffix: letters directly attached.
	for l.off < len(l.src) {
		c := l.peekByte()
		if ('a' <= c && c <= 'z') || ('A' <= c && c <= 'Z') {
			l.advance()
			continue
		}
		break
	}
	return token{kind: tokNumber, text: l.src[from:l.off], pos: start}, nil
}

// lexString consumes a double-quoted string with the escapes of attr.quote.
func (l *lexer) lexString(start Pos) (token, error) {
	l.advance() // opening quote
	var b strings.Builder
	for {
		if l.off >= len(l.src) {
			return token{}, l.errorf(start, "unterminated string")
		}
		c := l.advance()
		switch c {
		case '"':
			return token{kind: tokString, text: b.String(), pos: start}, nil
		case '\\':
			if l.off >= len(l.src) {
				return token{}, l.errorf(start, "unterminated escape in string")
			}
			e := l.advance()
			switch e {
			case '"':
				b.WriteByte('"')
			case '\\':
				b.WriteByte('\\')
			case 'n':
				b.WriteByte('\n')
			case 't':
				b.WriteByte('\t')
			default:
				return token{}, l.errorf(start, "unknown escape \\%c", e)
			}
		default:
			b.WriteByte(c)
		}
	}
}

// identOK reports whether s is writable as a bare identifier.
func identOK(s string) bool {
	if s == "" {
		return false
	}
	if !isIdentStart(s[0]) {
		return false
	}
	for i := 1; i < len(s); i++ {
		if !isIdentCont(s[i]) {
			return false
		}
	}
	// Reject what would lex back as something else: a sign before a
	// digit is a number, and a lone "-" is the empty ID.
	if s == "-" || s[0] == '-' && len(s) > 1 && '0' <= s[1] && s[1] <= '9' {
		return false
	}
	return true
}
