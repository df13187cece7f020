package dsl

import (
	"fmt"
	"strconv"
	"strings"
)

// keyOps maps the operator spellings a canonical key uses to the operator
// and its arity. Leaves have their own one-letter spellings and never
// appear here.
var keyOps = map[string]struct {
	op    Op
	arity int
}{
	"+": {OpAdd, 2}, "-": {OpSub, 2}, "*": {OpMul, 2}, "/": {OpDiv, 2},
	"?:": {OpCond, 3}, "cube": {OpCube, 1}, "cbrt": {OpCbrt, 1},
	"<": {OpLt, 2}, ">": {OpGt, 2}, "%=": {OpModEq, 2},
}

// ParseKey is the exact inverse of Key: it rebuilds the tree a canonical
// key was computed from, so that ParseKey(n.Key()) is structurally equal
// to n and ParseKey(s).Key() == s for every key it accepts. Anything that
// Key could not have produced — an unknown operator or signal, a wrong
// arity, a non-canonical number spelling — is an error.
//
// Every node of the result has its key memoized as its substring of s, so
// the restored keys cost no allocation and no Key walk, and the tree is
// safe to publish to concurrent readers as it is. The nodes and child
// lists come from two slabs, two allocations per tree.
func ParseKey(s string) (*Node, error) {
	// Each child is preceded by exactly one space, so a well-formed key has
	// one node more than it has spaces.
	kids := strings.Count(s, " ")
	p := keyParser{s: s, nodes: make([]Node, kids+1), kids: make([]*Node, kids)}
	n, err := p.node()
	if err != nil {
		return nil, err
	}
	if p.pos != len(s) {
		return nil, p.errf("trailing text")
	}
	return n, nil
}

// keyParser is ParseKey's recursive-descent state: the input, the read
// position and the unused parts of the node and child slabs.
type keyParser struct {
	s     string
	pos   int
	nodes []Node
	kids  []*Node
}

func (p *keyParser) errf(format string, args ...any) error {
	return fmt.Errorf("dsl: key %q at %d: %s", p.s, p.pos, fmt.Sprintf(format, args...))
}

// token reads up to the next space, closing parenthesis or the end.
func (p *keyParser) token() string {
	start := p.pos
	for p.pos < len(p.s) && p.s[p.pos] != ' ' && p.s[p.pos] != ')' {
		p.pos++
	}
	return p.s[start:p.pos]
}

// node parses one key: a leaf token or "(op kid ...)".
func (p *keyParser) node() (*Node, error) {
	if len(p.nodes) == 0 {
		return nil, p.errf("more nodes than separators")
	}
	n := &p.nodes[0]
	p.nodes = p.nodes[1:]
	start := p.pos
	if p.pos < len(p.s) && p.s[p.pos] == '(' {
		p.pos++
		name := p.token()
		o, ok := keyOps[name]
		if !ok {
			return nil, p.errf("unknown operator %q", name)
		}
		if len(p.kids) < o.arity {
			return nil, p.errf("%s needs %d operands", name, o.arity)
		}
		n.Op = o.op
		n.Kids = p.kids[:o.arity:o.arity]
		p.kids = p.kids[o.arity:]
		for i := range n.Kids {
			if p.pos >= len(p.s) || p.s[p.pos] != ' ' {
				return nil, p.errf("%s needs %d operands", name, o.arity)
			}
			p.pos++
			k, err := p.node()
			if err != nil {
				return nil, err
			}
			n.Kids[i] = k
		}
		if p.pos >= len(p.s) || p.s[p.pos] != ')' {
			return nil, p.errf("%s takes %d operands", name, o.arity)
		}
		p.pos++
	} else if err := p.leaf(n, p.token()); err != nil {
		return nil, err
	}
	n.keyCache = p.s[start:p.pos]
	return n, nil
}

// leaf fills n from a leaf token: w, c, sN, mN or k<float>.
func (p *keyParser) leaf(n *Node, tok string) error {
	if tok == "" {
		return p.errf("empty operand")
	}
	arg := tok[1:]
	switch {
	case tok == "w":
		n.Op = OpCwnd
	case tok == "c":
		n.Op = OpConst
	case tok[0] == 's' || tok[0] == 'm':
		v, err := strconv.Atoi(arg)
		if err != nil || strconv.Itoa(v) != arg {
			return p.errf("bad index %q", tok)
		}
		if tok[0] == 's' {
			if _, ok := signalNames[Signal(v)]; !ok {
				return p.errf("unknown signal %q", tok)
			}
			n.Op, n.Sig = OpSignal, Signal(v)
		} else {
			if _, ok := macroNames[Macro(v)]; !ok {
				return p.errf("unknown macro %q", tok)
			}
			n.Op, n.Mac = OpMacro, Macro(v)
		}
	case tok[0] == 'k':
		v, err := strconv.ParseFloat(arg, 64)
		var buf [32]byte
		if err != nil || string(strconv.AppendFloat(buf[:0], v, 'g', -1, 64)) != arg {
			return p.errf("bad constant %q", tok)
		}
		n.Op, n.Bound, n.Value = OpConst, true, v
	default:
		return p.errf("unknown leaf %q", tok)
	}
	return nil
}
