package compiler

import "math"

// parser is a recursive-descent parser over the token stream.
type parser struct {
	toks  []token
	i     int
	dims  int // set once the dims decl is seen; needed to parse accesses
	depth int // current expression nesting depth (see MaxExprDepth)
}

// Parse parses a stencil specification. Inputs beyond the front-door
// limits (MaxSourceBytes, MaxTokens, MaxExprDepth) are rejected with a
// *LimitError before they can make parsing expensive.
func Parse(src string) (*Program, error) {
	if len(src) > MaxSourceBytes {
		return nil, &LimitError{What: "source bytes", Limit: MaxSourceBytes, Got: len(src)}
	}
	toks, err := lexAll(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	prog, err := p.program()
	if err != nil {
		return nil, err
	}
	prog.Tokens = len(toks)
	return prog, nil
}

func (p *parser) cur() token  { return p.toks[p.i] }
func (p *parser) peek() token { return p.toks[min(p.i+1, len(p.toks)-1)] }

func (p *parser) advance() token {
	t := p.toks[p.i]
	if p.i < len(p.toks)-1 {
		p.i++
	}
	return t
}

func (p *parser) expectPunct(s string) (token, error) {
	t := p.cur()
	if t.kind != tokPunct || t.text != s {
		return t, errf(t.pos, "expected %q, found %s", s, t)
	}
	return p.advance(), nil
}

func (p *parser) expectIdent(names ...string) (token, error) {
	t := p.cur()
	if t.kind != tokIdent {
		return t, errf(t.pos, "expected identifier, found %s", t)
	}
	if len(names) > 0 {
		ok := false
		for _, n := range names {
			if t.text == n {
				ok = true
			}
		}
		if !ok {
			return t, errf(t.pos, "expected %v, found %s", names, t)
		}
	}
	return p.advance(), nil
}

func (p *parser) isPunct(s string) bool {
	t := p.cur()
	return t.kind == tokPunct && t.text == s
}

func (p *parser) program() (*Program, error) {
	if _, err := p.expectIdent("stencil"); err != nil {
		return nil, err
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	prog := &Program{Pos: name.pos, Name: name.text}
	if _, err := p.expectPunct("{"); err != nil {
		return nil, err
	}
	for !p.isPunct("}") {
		if p.cur().kind == tokEOF {
			return nil, errf(p.cur().pos, "unterminated stencil block")
		}
		if err := p.decl(prog); err != nil {
			return nil, err
		}
	}
	p.advance() // '}'
	if t := p.cur(); t.kind != tokEOF {
		return nil, errf(t.pos, "unexpected %s after stencil block", t)
	}
	return prog, nil
}

func (p *parser) decl(prog *Program) error {
	t, err := p.expectIdent()
	if err != nil {
		return err
	}
	switch t.text {
	case "dims":
		if _, err := p.expectPunct(":"); err != nil {
			return err
		}
		n := p.cur()
		if n.kind != tokNumber || n.num != math.Trunc(n.num) || n.num < 1 {
			return errf(n.pos, "dims wants a positive integer, found %s", n)
		}
		if int(n.num) > MaxDSLDims {
			return errf(n.pos, "dims %d exceeds the language limit of %d", int(n.num), MaxDSLDims)
		}
		if prog.Dims != 0 {
			return errf(t.pos, "duplicate dims declaration")
		}
		p.advance()
		prog.Dims = int(n.num)
		p.dims = prog.Dims
		_, err := p.expectPunct(";")
		return err
	case "param":
		name, err := p.expectIdent()
		if err != nil {
			return err
		}
		if _, err := p.expectPunct("="); err != nil {
			return err
		}
		v, err := p.signedNumber()
		if err != nil {
			return err
		}
		prog.Params = append(prog.Params, &Param{Pos: name.pos, Name: name.text, Value: v})
		_, err = p.expectPunct(";")
		return err
	case "array":
		name, err := p.expectIdent()
		if err != nil {
			return err
		}
		prog.Arrays = append(prog.Arrays, &ArrayDecl{Pos: name.pos, Name: name.text})
		_, err = p.expectPunct(";")
		return err
	case "boundary":
		name, err := p.expectIdent()
		if err != nil {
			return err
		}
		if _, err := p.expectPunct(":"); err != nil {
			return err
		}
		var decl *ArrayDecl
		for _, a := range prog.Arrays {
			if a.Name == name.text {
				decl = a
			}
		}
		if decl == nil {
			return errf(name.pos, "boundary for undeclared array %q", name.text)
		}
		kind, err := p.expectIdent("periodic", "zero", "clamp", "constant")
		if err != nil {
			return err
		}
		switch kind.text {
		case "periodic":
			decl.Boundary = BoundaryPeriodic
		case "zero":
			decl.Boundary = BoundaryZero
		case "clamp":
			decl.Boundary = BoundaryClamp
		case "constant":
			v, err := p.signedNumber()
			if err != nil {
				return err
			}
			decl.Boundary = BoundaryConstant
			decl.Constant = v
		}
		_, err = p.expectPunct(";")
		return err
	case "kernel":
		if prog.Dims == 0 {
			return errf(t.pos, "dims must be declared before the kernel")
		}
		if prog.Kernel != nil {
			return errf(t.pos, "duplicate kernel block")
		}
		if _, err := p.expectPunct("{"); err != nil {
			return err
		}
		for !p.isPunct("}") {
			if p.cur().kind == tokEOF {
				return errf(p.cur().pos, "unterminated kernel block")
			}
			a, err := p.assign()
			if err != nil {
				return err
			}
			prog.Kernel = append(prog.Kernel, a)
		}
		p.advance()
		return nil
	}
	return errf(t.pos, "unknown declaration %q (want dims, param, array, boundary, or kernel)", t.text)
}

func (p *parser) signedNumber() (float64, error) {
	neg := false
	if p.isPunct("-") {
		p.advance()
		neg = true
	}
	n := p.cur()
	if n.kind != tokNumber {
		return 0, errf(n.pos, "expected a number, found %s", n)
	}
	p.advance()
	if neg {
		return -n.num, nil
	}
	return n.num, nil
}

func (p *parser) assign() (*Assign, error) {
	lhs, err := p.access()
	if err != nil {
		return nil, err
	}
	if _, err := p.expectPunct("="); err != nil {
		return nil, err
	}
	rhs, err := p.expr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expectPunct(";"); err != nil {
		return nil, err
	}
	return &Assign{Pos: lhs.Pos, LHS: lhs, RHS: rhs}, nil
}

// access parses name(t±k, x±a, y±b, ...).
func (p *parser) access() (*Access, error) {
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if _, err := p.expectPunct("("); err != nil {
		return nil, err
	}
	a := &Access{Pos: name.pos, Array: name.text}
	a.DT, err = p.indexExpr("t")
	if err != nil {
		return nil, err
	}
	for i := 0; i < p.dims; i++ {
		if _, err := p.expectPunct(","); err != nil {
			return nil, err
		}
		off, err := p.indexExpr(indexNames[i])
		if err != nil {
			return nil, err
		}
		a.DX = append(a.DX, off)
	}
	_, err = p.expectPunct(")")
	return a, err
}

// indexExpr parses `name`, `name+INT`, or `name-INT` where name is the
// expected index variable for this argument position.
func (p *parser) indexExpr(want string) (int, error) {
	id, err := p.expectIdent()
	if err != nil {
		return 0, err
	}
	if id.text != want {
		return 0, errf(id.pos, "index argument must use %q at this position, found %q", want, id.text)
	}
	sign := 0
	switch {
	case p.isPunct("+"):
		sign = 1
	case p.isPunct("-"):
		sign = -1
	default:
		return 0, nil
	}
	p.advance()
	n := p.cur()
	if n.kind != tokNumber || n.num != math.Trunc(n.num) {
		return 0, errf(n.pos, "index offset must be an integer, found %s", n)
	}
	p.advance()
	return sign * int(n.num), nil
}

// ---- Expression grammar (precedence climbing) ----

func (p *parser) expr() (Expr, error) {
	l, err := p.term()
	if err != nil {
		return nil, err
	}
	for p.isPunct("+") || p.isPunct("-") {
		op := p.advance()
		r, err := p.term()
		if err != nil {
			return nil, err
		}
		l = &Binary{Pos: op.pos, Op: op.text[0], L: l, R: r}
	}
	return l, nil
}

func (p *parser) term() (Expr, error) {
	l, err := p.factor()
	if err != nil {
		return nil, err
	}
	for p.isPunct("*") || p.isPunct("/") {
		op := p.advance()
		r, err := p.factor()
		if err != nil {
			return nil, err
		}
		l = &Binary{Pos: op.pos, Op: op.text[0], L: l, R: r}
	}
	return l, nil
}

func (p *parser) factor() (Expr, error) {
	// factor is the recursion point of the expression grammar (parentheses,
	// unary minus, min/max arguments all re-enter through it), so the depth
	// guard here bounds the whole parser's stack use.
	p.depth++
	defer func() { p.depth-- }()
	if p.depth > MaxExprDepth {
		return nil, &LimitError{What: "expression depth", Limit: MaxExprDepth, Got: p.depth}
	}
	t := p.cur()
	switch {
	case t.kind == tokNumber:
		p.advance()
		return &Num{Pos: t.pos, Value: t.num, Text: t.text}, nil
	case p.isPunct("-"):
		p.advance()
		x, err := p.factor()
		if err != nil {
			return nil, err
		}
		return &Unary{Pos: t.pos, Op: '-', X: x}, nil
	case p.isPunct("("):
		p.advance()
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		_, err = p.expectPunct(")")
		return e, err
	case t.kind == tokIdent:
		if t.text == "max" || t.text == "min" {
			p.advance()
			if _, err := p.expectPunct("("); err != nil {
				return nil, err
			}
			var args []Expr
			for {
				a, err := p.expr()
				if err != nil {
					return nil, err
				}
				args = append(args, a)
				if p.isPunct(",") {
					p.advance()
					continue
				}
				break
			}
			if _, err := p.expectPunct(")"); err != nil {
				return nil, err
			}
			if len(args) != 2 {
				return nil, errf(t.pos, "%s expects exactly 2 arguments, got %d", t.text, len(args))
			}
			return &Call{Pos: t.pos, Name: t.text, Args: args}, nil
		}
		// Array access or parameter reference, disambiguated by '('.
		if p.peek().kind == tokPunct && p.peek().text == "(" {
			return p.access()
		}
		p.advance()
		return &Ref{Pos: t.pos, Name: t.text}, nil
	}
	return nil, errf(t.pos, "expected an expression, found %s", t)
}
