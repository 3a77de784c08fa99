package codec

import (
	"fmt"

	"repro/internal/attr"
	"repro/internal/core"
	"repro/internal/units"
)

// parser turns tokens into a CMIF tree.
type parser struct {
	lex *lexer
	tok token
}

// Parse reads a complete document from src and decodes its dictionaries.
func Parse(src string) (*core.Document, error) {
	root, err := ParseNode(src)
	if err != nil {
		return nil, err
	}
	d, err := core.NewDocument(root)
	if err != nil {
		// The root's dictionaries do not decode: an error at the root.
		l := newLexer(src)
		l.skipSpace()
		return nil, &SyntaxError{Pos: l.pos(), Msg: err.Error()}
	}
	return d, nil
}

// ParseNode parses a single node tree from src without document-level
// dictionary decoding (useful for fragments).
func ParseNode(src string) (*core.Node, error) {
	p := &parser{lex: newLexer(src)}
	if err := p.advance(); err != nil {
		return nil, err
	}
	n, err := p.parseNode()
	if err != nil {
		return nil, err
	}
	if p.tok.kind != tokEOF {
		return nil, p.errorf("trailing input after document (%v)", p.tok.kind)
	}
	return n, nil
}

func (p *parser) advance() error {
	t, err := p.lex.next()
	if err != nil {
		return err
	}
	p.tok = t
	return nil
}

func (p *parser) errorf(format string, args ...interface{}) error {
	return &SyntaxError{Pos: p.tok.pos, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) expect(kind tokenKind) (token, error) {
	if p.tok.kind != kind {
		return token{}, p.errorf("expected %v, found %v", kind, p.tok.kind)
	}
	t := p.tok
	if err := p.advance(); err != nil {
		return token{}, err
	}
	return t, nil
}

// parseNode parses '(' NODETYPE element* ')'.
func (p *parser) parseNode() (*core.Node, error) {
	if _, err := p.expect(tokLParen); err != nil {
		return nil, err
	}
	head, err := p.expect(tokIdent)
	if err != nil {
		return nil, err
	}
	nt, err := core.ParseNodeType(head.text)
	if err != nil {
		return nil, &SyntaxError{Pos: head.pos, Msg: err.Error()}
	}
	n := core.NewNode(nt)
	var dataAttr *string
	var dataHex *string
	for {
		switch p.tok.kind {
		case tokRParen:
			if err := p.advance(); err != nil {
				return nil, err
			}
			if err := applyImmData(n, dataAttr, dataHex); err != nil {
				return nil, &SyntaxError{Pos: head.pos, Msg: err.Error()}
			}
			return n, nil
		case tokLParen:
			// Lookahead: node or attribute pair? Peek the head identifier.
			save := *p.lex
			saveTok := p.tok
			if err := p.advance(); err != nil {
				return nil, err
			}
			if p.tok.kind != tokIdent {
				return nil, p.errorf("expected identifier after '(', found %v", p.tok.kind)
			}
			if _, isNode := nodeTypeSet[p.tok.text]; isNode {
				// Rewind and parse a child node.
				*p.lex = save
				p.tok = saveTok
				child, err := p.parseNode()
				if err != nil {
					return nil, err
				}
				if nt.IsLeaf() {
					return nil, &SyntaxError{Pos: saveTok.pos,
						Msg: fmt.Sprintf("%v leaf cannot contain child nodes", nt)}
				}
				n.AddChild(child)
				continue
			}
			// Attribute pair: we already consumed '(' and sit on the name.
			name := p.tok.text
			namePos := p.tok.pos
			if !identOK(name) {
				return nil, &SyntaxError{Pos: namePos,
					Msg: fmt.Sprintf("attribute name %q is not an identifier the writer can render", name)}
			}
			if err := p.advance(); err != nil {
				return nil, err
			}
			val, err := p.parsePairValues()
			if err != nil {
				return nil, err
			}
			switch name {
			case "data":
				s, ok := val.AsString()
				if !ok {
					return nil, &SyntaxError{Pos: namePos, Msg: "data attribute must be a string"}
				}
				dataAttr = &s
			case "datahex":
				s, ok := val.AsString()
				if !ok {
					if s, ok = val.AsID(); !ok {
						return nil, &SyntaxError{Pos: namePos, Msg: "datahex attribute must be a string or identifier"}
					}
				}
				dataHex = &s
			default:
				if n.Attrs.Has(name) {
					return nil, &SyntaxError{Pos: namePos,
						Msg: fmt.Sprintf("duplicate attribute %q (each name may occur at most once)", name)}
				}
				n.Attrs.Set(name, val)
			}
		default:
			return nil, p.errorf("expected attribute, child node or ')', found %v", p.tok.kind)
		}
	}
}

var nodeTypeSet = map[string]struct{}{
	"seq": {}, "par": {}, "ext": {}, "imm": {},
}

// applyImmData installs decoded payload data on an imm node.
func applyImmData(n *core.Node, text, hexData *string) error {
	if text == nil && hexData == nil {
		return nil
	}
	if n.Type != core.Imm {
		return fmt.Errorf("data attribute on non-imm %v node", n.Type)
	}
	if text != nil && hexData != nil {
		return fmt.Errorf("imm node carries both data and datahex")
	}
	if text != nil {
		n.Data = []byte(*text)
		return nil
	}
	b, err := decodeHex(*hexData)
	if err != nil {
		return fmt.Errorf("datahex: %w", err)
	}
	n.Data = b
	return nil
}

// parsePairValues parses value* up to the closing ')'. Zero values yield an
// empty list; one value yields that value; several yield an anonymous list.
func (p *parser) parsePairValues() (attr.Value, error) {
	var vals []attr.Value
	for p.tok.kind != tokRParen {
		v, err := p.parseValue()
		if err != nil {
			return attr.Value{}, err
		}
		vals = append(vals, v)
	}
	if err := p.advance(); err != nil { // consume ')'
		return attr.Value{}, err
	}
	switch len(vals) {
	case 0:
		return attr.VList(), nil
	case 1:
		return vals[0], nil
	default:
		return attr.VList(vals...), nil
	}
}

// parseValue parses one value: scalar, list, or (inside lists) named item
// handled by parseList.
func (p *parser) parseValue() (attr.Value, error) {
	switch p.tok.kind {
	case tokIdent:
		text := p.tok.text
		if err := p.advance(); err != nil {
			return attr.Value{}, err
		}
		if text == "-" {
			return attr.ID(""), nil
		}
		return attr.ID(text), nil
	case tokString:
		text := p.tok.text
		if err := p.advance(); err != nil {
			return attr.Value{}, err
		}
		return attr.String(text), nil
	case tokNumber:
		q, err := units.Parse(p.tok.text)
		if err != nil {
			return attr.Value{}, &SyntaxError{Pos: p.tok.pos, Msg: err.Error()}
		}
		if err := p.advance(); err != nil {
			return attr.Value{}, err
		}
		return attr.Quantity(q), nil
	case tokLBrack:
		return p.parseList()
	default:
		return attr.Value{}, p.errorf("expected value, found %v", p.tok.kind)
	}
}

// parseList parses '[' item* ']' where items are values or '(' name value* ')'
// named items.
func (p *parser) parseList() (attr.Value, error) {
	if _, err := p.expect(tokLBrack); err != nil {
		return attr.Value{}, err
	}
	var items []attr.Item
	for {
		switch p.tok.kind {
		case tokRBrack:
			if err := p.advance(); err != nil {
				return attr.Value{}, err
			}
			return attr.ListOf(items...), nil
		case tokLParen:
			if err := p.advance(); err != nil {
				return attr.Value{}, err
			}
			name, err := p.expect(tokIdent)
			if err != nil {
				return attr.Value{}, err
			}
			if !identOK(name.text) {
				return attr.Value{}, &SyntaxError{Pos: name.pos,
					Msg: fmt.Sprintf("list item name %q is not an identifier the writer can render", name.text)}
			}
			v, err := p.parsePairValues()
			if err != nil {
				return attr.Value{}, err
			}
			items = append(items, attr.Named(name.text, v))
		case tokEOF:
			return attr.Value{}, p.errorf("unterminated list")
		default:
			v, err := p.parseValue()
			if err != nil {
				return attr.Value{}, err
			}
			items = append(items, attr.Item{Value: v})
		}
	}
}

// decodeHex decodes a lowercase/uppercase hex string.
func decodeHex(s string) ([]byte, error) {
	if len(s)%2 != 0 {
		return nil, fmt.Errorf("odd-length hex string")
	}
	out := make([]byte, len(s)/2)
	for i := 0; i < len(out); i++ {
		hi, ok1 := hexVal(s[2*i])
		lo, ok2 := hexVal(s[2*i+1])
		if !ok1 || !ok2 {
			return nil, fmt.Errorf("invalid hex byte %q", s[2*i:2*i+2])
		}
		out[i] = hi<<4 | lo
	}
	return out, nil
}

func hexVal(c byte) (byte, bool) {
	switch {
	case '0' <= c && c <= '9':
		return c - '0', true
	case 'a' <= c && c <= 'f':
		return c - 'a' + 10, true
	case 'A' <= c && c <= 'F':
		return c - 'A' + 10, true
	default:
		return 0, false
	}
}
