package core

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

// StringEncoder turns a string constant into its int64 code. *rel.Dict
// satisfies this via its Code method; core takes the interface so it does
// not depend on the storage layer.
type StringEncoder interface {
	Code(s string) int64
}

// ParseRule parses one datalog rule in the paper's notation:
//
//	Head(v1,...,vn) :- Atom1(t,...), Atom2(t,...), x>=1990, f1>f2
//
// Terms are variables (identifiers starting with a lower-case letter or
// underscore), integer constants, double-quoted string constants encoded
// through enc, or "?" positional parameter placeholders (bound later with
// Query.Bind — the prepared-statement form). Comparisons between atoms are
// parsed as filters. Relation
// names must start with an upper-case letter, matching the paper's
// convention (Twitter_R, ObjectName, ...). enc may be nil when the rule has
// no string constants. A head with no variables, Q(), takes a body with
// none: its answer is one empty row when every atom matches, none
// otherwise.
func ParseRule(rule string, enc StringEncoder) (*Query, error) {
	p := &parser{src: rule, enc: enc}
	q, err := p.rule()
	if err != nil {
		return nil, fmt.Errorf("core: parsing %q: %w", rule, err)
	}
	return q, nil
}

// MustParseRule is ParseRule that panics on error; for statically known rules.
func MustParseRule(rule string, enc StringEncoder) *Query {
	q, err := ParseRule(rule, enc)
	if err != nil {
		panic(err)
	}
	return q
}

type parser struct {
	src    string
	pos    int
	enc    StringEncoder
	params int // "?" placeholders seen so far; assigns positional indexes
}

func (p *parser) rule() (*Query, error) {
	name, err := p.ident()
	if err != nil {
		return nil, fmt.Errorf("rule head: %w", err)
	}
	headTerms, err := p.termList(true)
	if err != nil {
		return nil, fmt.Errorf("head of %s: %w", name, err)
	}
	var head []Var
	for _, t := range headTerms {
		if !t.IsVar {
			return nil, fmt.Errorf("head of %s: constants are not allowed in the head", name)
		}
		head = append(head, t.Var)
	}
	p.ws()
	if !p.eat(":-") {
		return nil, fmt.Errorf("expected \":-\" after head at offset %d", p.pos)
	}

	var atoms []Atom
	var filters []Filter
	for {
		p.ws()
		start := p.pos
		id, err := p.ident()
		if err != nil {
			return nil, fmt.Errorf("expected atom or filter at offset %d: %w", start, err)
		}
		p.ws()
		if p.peek() == '(' {
			terms, err := p.termList(false)
			if err != nil {
				return nil, fmt.Errorf("atom %s: %w", id, err)
			}
			atoms = append(atoms, Atom{Relation: id, Terms: terms})
		} else {
			op, err := p.cmpOp()
			if err != nil {
				return nil, fmt.Errorf("after %q: %w", id, err)
			}
			right, err := p.term()
			if err != nil {
				return nil, fmt.Errorf("right side of filter on %s: %w", id, err)
			}
			filters = append(filters, Filter{Left: Var(id), Op: op, Right: right})
		}
		p.ws()
		if !p.eat(",") {
			break
		}
	}
	p.ws()
	if p.pos != len(p.src) {
		return nil, fmt.Errorf("trailing input at offset %d: %q", p.pos, p.src[p.pos:])
	}
	q, err := NewQuery(name, head, atoms, filters...)
	if err != nil {
		return nil, err
	}
	// An empty Head means every variable, so Q() :- E(x,y) would answer
	// as Q(x,y).
	if len(head) == 0 && len(q.Vars()) > 0 {
		return nil, fmt.Errorf("head of %s: a head with no variables needs a body with none", name)
	}
	return q, nil
}

// termList parses a parenthesized, comma-separated term list; empty
// allows "()".
func (p *parser) termList(empty bool) ([]Term, error) {
	p.ws()
	if !p.eat("(") {
		return nil, fmt.Errorf("expected \"(\" at offset %d", p.pos)
	}
	if p.ws(); empty && p.eat(")") {
		return nil, nil
	}
	var terms []Term
	for {
		t, err := p.term()
		if err != nil {
			return nil, err
		}
		terms = append(terms, t)
		p.ws()
		if p.eat(")") {
			return terms, nil
		}
		if !p.eat(",") {
			return nil, fmt.Errorf("expected \",\" or \")\" at offset %d", p.pos)
		}
	}
}

func (p *parser) term() (Term, error) {
	p.ws()
	switch c := p.peek(); {
	case c == '"':
		s, err := p.stringLit()
		if err != nil {
			return Term{}, err
		}
		if p.enc == nil {
			return Term{}, fmt.Errorf("string constant %q but no string encoder was provided", s)
		}
		return C(p.enc.Code(s)), nil
	case c == '?':
		p.pos++
		p.params++
		return P(p.params - 1), nil
	case c == '-' || unicode.IsDigit(rune(c)):
		return p.number()
	default:
		id, err := p.ident()
		if err != nil {
			return Term{}, err
		}
		return V(id), nil
	}
}

func (p *parser) cmpOp() (CmpOp, error) {
	p.ws()
	switch {
	case p.eat(">="):
		return Ge, nil
	case p.eat("<="):
		return Le, nil
	case p.eat("!="):
		return Ne, nil
	case p.eat("<>"):
		return Ne, nil
	case p.eat(">"):
		return Gt, nil
	case p.eat("<"):
		return Lt, nil
	case p.eat("="):
		return Eq, nil
	}
	return 0, fmt.Errorf("expected comparison operator at offset %d", p.pos)
}

func (p *parser) ident() (string, error) {
	p.ws()
	start := p.pos
	for p.pos < len(p.src) {
		c := rune(p.src[p.pos])
		if unicode.IsLetter(c) || c == '_' || (p.pos > start && unicode.IsDigit(c)) {
			p.pos++
		} else {
			break
		}
	}
	if p.pos == start {
		return "", fmt.Errorf("expected identifier at offset %d", start)
	}
	return p.src[start:p.pos], nil
}

func (p *parser) number() (Term, error) {
	start := p.pos
	if p.peek() == '-' {
		p.pos++
	}
	for p.pos < len(p.src) && unicode.IsDigit(rune(p.src[p.pos])) {
		p.pos++
	}
	v, err := strconv.ParseInt(p.src[start:p.pos], 10, 64)
	if err != nil {
		return Term{}, fmt.Errorf("number at offset %d: %w", start, err)
	}
	return C(v), nil
}

func (p *parser) stringLit() (string, error) {
	if p.peek() != '"' {
		return "", fmt.Errorf("expected string literal at offset %d", p.pos)
	}
	p.pos++
	var b strings.Builder
	for p.pos < len(p.src) {
		c := p.src[p.pos]
		p.pos++
		if c == '"' {
			return b.String(), nil
		}
		b.WriteByte(c)
	}
	return "", fmt.Errorf("unterminated string literal")
}

func (p *parser) ws() {
	for p.pos < len(p.src) && unicode.IsSpace(rune(p.src[p.pos])) {
		p.pos++
	}
}

func (p *parser) peek() byte {
	if p.pos >= len(p.src) {
		return 0
	}
	return p.src[p.pos]
}

func (p *parser) eat(s string) bool {
	if strings.HasPrefix(p.src[p.pos:], s) {
		p.pos += len(s)
		return true
	}
	return false
}
