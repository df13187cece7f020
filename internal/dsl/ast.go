// Package dsl defines Abagnale's domain-specific language of classical
// congestion control handlers (Listing 1 of the paper): expression trees
// over congestion signals, arithmetic, conditionals, cube/cube-root, and
// the pre-defined macros of Table 1. A tree with unbound constants is a
// *sketch*; binding every constant yields a concrete *handler* that maps an
// ACK-time environment to a new congestion window in bytes.
package dsl

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Op is an AST node kind.
type Op int

// Node kinds. Leaves first, then numeric operators, then boolean operators.
const (
	OpInvalid Op = iota
	OpCwnd       // the current congestion window (state)
	OpSignal     // a congestion signal leaf
	OpConst      // a constant: a hole when unbound, a literal when bound
	OpMacro      // a Table 1 macro leaf

	OpAdd
	OpSub
	OpMul
	OpDiv
	OpCond // bool ? num : num
	OpCube // num^3
	OpCbrt // cube root

	OpLt    // num < num
	OpGt    // num > num
	OpModEq // num % num == 0
)

// String returns the operator's DSL spelling.
func (o Op) String() string {
	switch o {
	case OpCwnd:
		return "cwnd"
	case OpSignal:
		return "signal"
	case OpConst:
		return "const"
	case OpMacro:
		return "macro"
	case OpAdd:
		return "+"
	case OpSub:
		return "-"
	case OpMul:
		return "*"
	case OpDiv:
		return "/"
	case OpCond:
		return "?:"
	case OpCube:
		return "cube"
	case OpCbrt:
		return "cbrt"
	case OpLt:
		return "<"
	case OpGt:
		return ">"
	case OpModEq:
		return "%="
	default:
		return fmt.Sprintf("Op(%d)", int(o))
	}
}

// IsBool reports whether the operator produces a boolean.
func (o Op) IsBool() bool { return o == OpLt || o == OpGt || o == OpModEq }

// IsLeaf reports whether the operator is a leaf node kind.
func (o Op) IsLeaf() bool {
	return o == OpCwnd || o == OpSignal || o == OpConst || o == OpMacro
}

// Signal identifies a congestion signal available to handlers.
type Signal int

// Congestion signals (Listing 1). The base set is mss/acked-bytes/
// time-since-loss; rtt through rtt-gradient are the rate/delay extensions;
// wmax (window at last loss) is a Cubic-DSL extension.
const (
	SigMSS Signal = iota
	SigAcked
	SigTimeSinceLoss
	SigRTT
	SigMinRTT
	SigMaxRTT
	SigAckRate
	SigRTTGradient
	SigWMax
)

// signalNames spells signals the way the paper does.
var signalNames = map[Signal]string{
	SigMSS:           "mss",
	SigAcked:         "acked",
	SigTimeSinceLoss: "time-since-loss",
	SigRTT:           "rtt",
	SigMinRTT:        "min-rtt",
	SigMaxRTT:        "max-rtt",
	SigAckRate:       "ack-rate",
	SigRTTGradient:   "rtt-gradient",
	SigWMax:          "wmax",
}

// String returns the signal's DSL spelling.
func (s Signal) String() string {
	if n, ok := signalNames[s]; ok {
		return n
	}
	return fmt.Sprintf("Signal(%d)", int(s))
}

// Macro identifies one of the pre-defined macros of Table 1.
type Macro int

// Table 1 macros.
const (
	// MacroRenoInc is reno-inc = ACKed x MSS / CWND: Reno's increment of
	// one MSS per window per RTT.
	MacroRenoInc Macro = iota
	// MacroVegasDiff is vegas-diff = (RTT - minRTT) x ack-rate / MSS:
	// Vegas's estimate of packets queued at the bottleneck.
	MacroVegasDiff
	// MacroHTCPDiff is htcp-diff = (RTT - minRTT) / maxRTT: H-TCP's
	// normalized RTT variation.
	MacroHTCPDiff
	// MacroRTTsSinceLoss is rtts-since-loss = time-since-loss / RTT: the
	// loss age in RTT units, as used by BBR.
	MacroRTTsSinceLoss
)

// macroNames spells macros the way the paper does.
var macroNames = map[Macro]string{
	MacroRenoInc:       "reno-inc",
	MacroVegasDiff:     "vegas-diff",
	MacroHTCPDiff:      "htcp-diff",
	MacroRTTsSinceLoss: "rtts-since-loss",
}

// String returns the macro's DSL spelling.
func (m Macro) String() string {
	if n, ok := macroNames[m]; ok {
		return n
	}
	return fmt.Sprintf("Macro(%d)", int(m))
}

// Node is one expression-tree node. Sketches and handlers share this
// representation; a sketch has at least one unbound OpConst.
type Node struct {
	Op Op
	// Sig is valid when Op == OpSignal.
	Sig Signal
	// Mac is valid when Op == OpMacro.
	Mac Macro
	// Bound and Value describe OpConst nodes: a bound node is a literal;
	// an unbound node is a hole to be filled during concretization.
	Bound bool
	Value float64
	// Kids are the children: 1 for cube/cbrt, 2 for binary operators and
	// comparisons, 3 for cond (bool, then, else).
	Kids []*Node

	// keyCache memoizes Key(); cleared by Clone so that post-clone
	// mutations (Bind) cannot observe a stale key.
	keyCache string
}

// Convenience constructors.

// Cwnd returns a congestion-window leaf.
func Cwnd() *Node { return &Node{Op: OpCwnd} }

// Sig returns a signal leaf.
func Sig(s Signal) *Node { return &Node{Op: OpSignal, Sig: s} }

// Mac returns a macro leaf.
func Mac(m Macro) *Node { return &Node{Op: OpMacro, Mac: m} }

// Hole returns an unbound constant.
func Hole() *Node { return &Node{Op: OpConst} }

// Lit returns a bound constant.
func Lit(v float64) *Node { return &Node{Op: OpConst, Bound: true, Value: v} }

// Add returns a + b.
func Add(a, b *Node) *Node { return &Node{Op: OpAdd, Kids: []*Node{a, b}} }

// Sub returns a - b.
func Sub(a, b *Node) *Node { return &Node{Op: OpSub, Kids: []*Node{a, b}} }

// Mul returns a * b.
func Mul(a, b *Node) *Node { return &Node{Op: OpMul, Kids: []*Node{a, b}} }

// Div returns a / b.
func Div(a, b *Node) *Node { return &Node{Op: OpDiv, Kids: []*Node{a, b}} }

// Cond returns cond ? then : els.
func Cond(cond, then, els *Node) *Node {
	return &Node{Op: OpCond, Kids: []*Node{cond, then, els}}
}

// Cube returns a^3.
func Cube(a *Node) *Node { return &Node{Op: OpCube, Kids: []*Node{a}} }

// Cbrt returns the cube root of a.
func Cbrt(a *Node) *Node { return &Node{Op: OpCbrt, Kids: []*Node{a}} }

// Lt returns a < b.
func Lt(a, b *Node) *Node { return &Node{Op: OpLt, Kids: []*Node{a, b}} }

// Gt returns a > b.
func Gt(a, b *Node) *Node { return &Node{Op: OpGt, Kids: []*Node{a, b}} }

// ModEq returns (a % b == 0).
func ModEq(a, b *Node) *Node { return &Node{Op: OpModEq, Kids: []*Node{a, b}} }

// Clone deep-copies the tree.
func (n *Node) Clone() *Node {
	if n == nil {
		return nil
	}
	c := *n
	c.keyCache = ""
	if len(n.Kids) > 0 {
		c.Kids = make([]*Node, len(n.Kids))
		for i, k := range n.Kids {
			c.Kids[i] = k.Clone()
		}
	}
	return &c
}

// Depth returns the tree depth (a leaf has depth 1). Macros count as
// depth-1 leaves, per the paper.
func (n *Node) Depth() int {
	if len(n.Kids) == 0 {
		return 1
	}
	max := 0
	for _, k := range n.Kids {
		if d := k.Depth(); d > max {
			max = d
		}
	}
	return 1 + max
}

// Size returns the number of nodes in the tree.
func (n *Node) Size() int {
	s := 1
	for _, k := range n.Kids {
		s += k.Size()
	}
	return s
}

// Holes returns the number of unbound constants, counted left-to-right.
func (n *Node) Holes() int {
	count := 0
	n.Walk(func(m *Node) {
		if m.Op == OpConst && !m.Bound {
			count++
		}
	})
	return count
}

// Walk visits every node in preorder.
func (n *Node) Walk(fn func(*Node)) {
	fn(n)
	for _, k := range n.Kids {
		k.Walk(fn)
	}
}

// Bind returns a copy of the sketch with holes filled left-to-right from
// vals. It fails if the count does not match. A hole-free n is returned as
// is: trees are not mutated once built, so there is nothing to copy.
func (n *Node) Bind(vals []float64) (*Node, error) {
	got := n.Holes()
	if got != len(vals) {
		return nil, fmt.Errorf("dsl: sketch has %d holes, got %d values", got, len(vals))
	}
	if got == 0 {
		return n, nil
	}
	c := n.Clone()
	i := 0
	c.Walk(func(m *Node) {
		if m.Op == OpConst && !m.Bound {
			m.Bound = true
			m.Value = vals[i]
			i++
		}
	})
	return c, nil
}

// OpSet is a bit set of operator kinds, the bucket discriminator of §4.4.
type OpSet uint32

// With returns the set including op.
func (s OpSet) With(op Op) OpSet { return s | 1<<uint(op) }

// Has reports membership.
func (s OpSet) Has(op Op) bool { return s&(1<<uint(op)) != 0 }

// SubsetOf reports whether every member of s is in t.
func (s OpSet) SubsetOf(t OpSet) bool { return s&^t == 0 }

// String lists the member operators.
func (s OpSet) String() string {
	var parts []string
	for op := OpAdd; op <= OpModEq; op++ {
		if s.Has(op) {
			parts = append(parts, op.String())
		}
	}
	if len(parts) == 0 {
		return "{}"
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// Ops returns the set of non-leaf operators used by the tree. Lt and Gt
// are folded together (they express the same ordering predicate with the
// operands swapped), so fine-tuned handlers written with ">" land in the
// same bucket as enumerator output written with "<".
func (n *Node) Ops() OpSet {
	var s OpSet
	n.Walk(func(m *Node) {
		if m.Op.IsLeaf() {
			return
		}
		op := m.Op
		if op == OpGt {
			op = OpLt
		}
		s = s.With(op)
	})
	return s
}

// Equal reports structural equality (including constant binding state).
func (n *Node) Equal(o *Node) bool {
	if n == nil || o == nil {
		return n == o
	}
	if n.Op != o.Op || n.Sig != o.Sig || n.Mac != o.Mac ||
		n.Bound != o.Bound || (n.Bound && n.Value != o.Value) ||
		len(n.Kids) != len(o.Kids) {
		return false
	}
	for i := range n.Kids {
		if !n.Kids[i].Equal(o.Kids[i]) {
			return false
		}
	}
	return true
}

// Key returns a canonical serialization used for ordering commutative
// operands and for deduplication. Keys are memoized: the enumerator
// compares them constantly while checking canonical operand order.
func (n *Node) Key() string {
	if n.keyCache != "" {
		return n.keyCache
	}
	var b strings.Builder
	switch n.Op {
	case OpCwnd:
		b.WriteString("w")
	case OpSignal:
		b.WriteString("s")
		b.WriteString(strconv.Itoa(int(n.Sig)))
	case OpMacro:
		b.WriteString("m")
		b.WriteString(strconv.Itoa(int(n.Mac)))
	case OpConst:
		if n.Bound {
			b.WriteString("k")
			b.WriteString(strconv.FormatFloat(n.Value, 'g', -1, 64))
		} else {
			b.WriteString("c")
		}
	default:
		b.WriteString("(")
		b.WriteString(n.Op.String())
		for _, k := range n.Kids {
			b.WriteString(" ")
			b.WriteString(k.Key())
		}
		b.WriteString(")")
	}
	n.keyCache = b.String()
	return n.keyCache
}

// String renders the expression in the paper's notation, e.g.
// "cwnd + 0.7*reno-inc" or "{vegas-diff < 1} ? 0.7*reno-inc : 0". Unbound
// holes render as c1, c2, ... in order of appearance, so sketches
// round-trip through Parse.
func (n *Node) String() string {
	r := &renderer{}
	return r.render(n, 0)
}

// renderer numbers holes as it prints.
type renderer struct {
	holes int
}

// precedence levels for rendering.
func (o Op) prec() int {
	switch o {
	case OpCond:
		return 1
	case OpLt, OpGt, OpModEq:
		return 2
	case OpAdd, OpSub:
		return 3
	case OpMul, OpDiv:
		return 4
	default:
		return 5
	}
}

func (r *renderer) render(n *Node, parent int) string {
	var s string
	switch n.Op {
	case OpCwnd:
		return "cwnd"
	case OpSignal:
		return n.Sig.String()
	case OpMacro:
		return n.Mac.String()
	case OpConst:
		if !n.Bound {
			r.holes++
			return "c" + strconv.Itoa(r.holes)
		}
		return strconv.FormatFloat(n.Value, 'g', 6, 64)
	case OpAdd:
		s = r.render(n.Kids[0], 3) + " + " + r.render(n.Kids[1], 4)
	case OpSub:
		s = r.render(n.Kids[0], 3) + " - " + r.render(n.Kids[1], 4)
	case OpMul:
		s = r.render(n.Kids[0], 4) + "*" + r.render(n.Kids[1], 5)
	case OpDiv:
		s = r.render(n.Kids[0], 4) + "/" + r.render(n.Kids[1], 5)
	case OpCond:
		s = "{" + r.render(n.Kids[0], 0) + "} ? " + r.render(n.Kids[1], 2) + " : " + r.render(n.Kids[2], 1)
	case OpCube:
		return "cube(" + r.render(n.Kids[0], 0) + ")"
	case OpCbrt:
		return "cbrt(" + r.render(n.Kids[0], 0) + ")"
	case OpLt:
		s = r.render(n.Kids[0], 3) + " < " + r.render(n.Kids[1], 3)
	case OpGt:
		s = r.render(n.Kids[0], 3) + " > " + r.render(n.Kids[1], 3)
	case OpModEq:
		s = r.render(n.Kids[0], 4) + " % " + r.render(n.Kids[1], 4) + " = 0"
	default:
		return "<invalid>"
	}
	if n.Op.prec() < parent {
		return "(" + s + ")"
	}
	return s
}

// Env is the per-ACK evaluation environment: the observable congestion
// signals at one trace sample plus the handler's own window state. Times
// are seconds, sizes bytes, rates bytes/second.
type Env struct {
	Cwnd          float64
	MSS           float64
	Acked         float64
	TimeSinceLoss float64
	RTT           float64
	MinRTT        float64
	MaxRTT        float64
	AckRate       float64
	RTTGradient   float64
	WMax          float64
}

// signal returns the value of a signal in this environment.
func (e *Env) signal(s Signal) float64 {
	switch s {
	case SigMSS:
		return e.MSS
	case SigAcked:
		return e.Acked
	case SigTimeSinceLoss:
		return e.TimeSinceLoss
	case SigRTT:
		return e.RTT
	case SigMinRTT:
		return e.MinRTT
	case SigMaxRTT:
		return e.MaxRTT
	case SigAckRate:
		return e.AckRate
	case SigRTTGradient:
		return e.RTTGradient
	case SigWMax:
		return e.WMax
	default:
		return math.NaN()
	}
}

// macro evaluates a Table 1 macro in this environment.
func (e *Env) macro(m Macro) float64 {
	switch m {
	case MacroRenoInc:
		return e.Acked * e.MSS / e.Cwnd
	case MacroVegasDiff:
		return (e.RTT - e.MinRTT) * e.AckRate / e.MSS
	case MacroHTCPDiff:
		return (e.RTT - e.MinRTT) / e.MaxRTT
	case MacroRTTsSinceLoss:
		return e.TimeSinceLoss / e.RTT
	default:
		return math.NaN()
	}
}

// modEqTolerance is the relative tolerance for the `a % b = 0` predicate:
// floating-point arithmetic rarely lands exactly on a multiple, so the
// predicate holds when the remainder is within 10% of 0 or of b.
const modEqTolerance = 0.10

// EvalErr reports why evaluation failed.
var ErrEval = fmt.Errorf("dsl: evaluation produced a non-finite value")

// Eval evaluates a fully-bound numeric expression. It returns ErrEval when
// any sub-expression is non-finite (division by ~zero, NaN signals, ...).
// Evaluating a sketch with unbound holes is an error.
func (n *Node) Eval(env *Env) (float64, error) {
	v := n.eval(env)
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, ErrEval
	}
	return v, nil
}

func (n *Node) eval(env *Env) float64 {
	switch n.Op {
	case OpCwnd:
		return env.Cwnd
	case OpSignal:
		return env.signal(n.Sig)
	case OpMacro:
		return env.macro(n.Mac)
	case OpConst:
		if !n.Bound {
			return math.NaN()
		}
		return n.Value
	case OpAdd:
		return n.Kids[0].eval(env) + n.Kids[1].eval(env)
	case OpSub:
		return n.Kids[0].eval(env) - n.Kids[1].eval(env)
	case OpMul:
		return n.Kids[0].eval(env) * n.Kids[1].eval(env)
	case OpDiv:
		return n.Kids[0].eval(env) / n.Kids[1].eval(env)
	case OpCond:
		b, ok := n.Kids[0].evalBool(env)
		if !ok {
			return math.NaN()
		}
		if b {
			return n.Kids[1].eval(env)
		}
		return n.Kids[2].eval(env)
	case OpCube:
		v := n.Kids[0].eval(env)
		return v * v * v
	case OpCbrt:
		return math.Cbrt(n.Kids[0].eval(env))
	default:
		return math.NaN()
	}
}

// evalBool evaluates a boolean node.
func (n *Node) evalBool(env *Env) (val, ok bool) {
	a := n.Kids[0].eval(env)
	b := n.Kids[1].eval(env)
	if math.IsNaN(a) || math.IsNaN(b) {
		return false, false
	}
	switch n.Op {
	case OpLt:
		return a < b, true
	case OpGt:
		return a > b, true
	case OpModEq:
		if b == 0 {
			return false, false
		}
		r := math.Abs(math.Mod(a, b))
		ab := math.Abs(b)
		return r <= modEqTolerance*ab || r >= (1-modEqTolerance)*ab, true
	default:
		return false, false
	}
}
