package enum

import (
	"iter"

	"repro/internal/dsl"
	"repro/internal/obs"
)

// This file keeps the original top-down generator as the reference the
// memoized one must match: the same sketches in the same order, the same
// candidate charges and the same early stops. Apart from the renames that
// keep it out of the production namespace (oracleGen, oracleEnumerate,
// oracleOpKey) it is the generator as it stood before memoization.

// oracleAll is Enumerator.All over the reference generator.
func oracleAll(e *Enumerator) iter.Seq[*dsl.Node] {
	return func(yield func(*dsl.Node) bool) {
		oracleEnumerate(e, fullOpSet(e.D), 0, nil, yield)
	}
}

// oracleBucketLimited is Enumerator.BucketLimited over the reference
// generator.
func oracleBucketLimited(e *Enumerator, ops dsl.OpSet, scanLimit int) iter.Seq[*dsl.Node] {
	return func(yield func(*dsl.Node) bool) {
		oracleEnumerate(e, ops, scanLimit, func(n *dsl.Node) verdict {
			if n.Ops() != ops {
				return skip
			}
			return keep
		}, yield)
	}
}

// verdict is a filter decision during enumeration.
type verdict int

const (
	keep verdict = iota
	skip
	stopEnum
)

// oracleEnumerate runs the generator with a scan budget tied to the actual
// generation work: every candidate root the generator constructs counts,
// including ones a later stage re-emits or the unit checker rejects —
// otherwise a deep DSL stage could grind indefinitely without ever
// consuming budget.
func oracleEnumerate(e *Enumerator, allowed dsl.OpSet, scanLimit int, filter func(*dsl.Node) verdict, yield func(*dsl.Node) bool) {
	budget := e.D.MaxNodes
	if budget <= 0 {
		budget = 1 << 20
	}
	cSketches := e.Obs.Counter("enum.sketches")
	g := &oracleGen{
		dsl: e.D, allowed: allowed, limit: scanLimit,
		candidates: e.Obs.Counter("enum.candidates"),
	}
	defer func() {
		if g.budgetHit {
			e.Obs.Counter("enum.scan_budget_exhausted").Inc()
		}
	}()
	for depth := 1; depth <= e.D.MaxDepth; depth++ {
		want := depth
		ok := g.genNum(depth, budget, func(n *dsl.Node) bool {
			if n.Depth() != want {
				return true // emitted at an earlier stage
			}
			if e.D.UnitCheck {
				if dsl.CheckHandlerUnits(n) != nil {
					return true // skip, keep enumerating
				}
			}
			if filter != nil {
				switch filter(n) {
				case skip:
					return true
				case stopEnum:
					return false
				}
			}
			cSketches.Inc()
			return yield(n.Clone())
		})
		if !ok {
			return
		}
	}
}

// oracleGen is the recursive generator. Children are canonical by
// construction, so each candidate node needs only the local canonicality
// check. When limit > 0, every constructed candidate — canonical or not —
// counts against it, so the budget bounds the generator's actual work;
// spent reports how much has been used.
type oracleGen struct {
	dsl        *dsl.DSL
	allowed    dsl.OpSet
	limit      int
	spent      int
	candidates *obs.Counter // nil no-op when unobserved
	budgetHit  bool
}

// charge consumes budget for one constructed candidate; it reports false
// when the budget is exhausted.
func (g *oracleGen) charge() bool {
	g.candidates.Inc()
	if g.limit <= 0 {
		return true
	}
	g.spent++
	if g.spent > g.limit {
		g.budgetHit = true
		return false
	}
	return true
}

// hasOp reports whether the operator may be used.
func (g *oracleGen) hasOp(op dsl.Op) bool {
	// The DSL must contain it and the bucket superset must allow it.
	in := false
	for _, o := range g.dsl.NumOps {
		if o == op {
			in = true
		}
	}
	for _, o := range g.dsl.BoolOps {
		if o == op {
			in = true
		}
	}
	return in && g.allowed.Has(oracleOpKey(op))
}

// oracleOpKey folds Gt into Lt for bucket membership.
func oracleOpKey(op dsl.Op) dsl.Op {
	if op == dsl.OpGt {
		return dsl.OpLt
	}
	return op
}

// genNum yields all canonical numeric trees with depth <= d and size <=
// budget. Each structurally distinct tree is produced exactly once. The
// callback returns false to stop enumeration; genNum propagates the stop.
func (g *oracleGen) genNum(d, budget int, yield func(*dsl.Node) bool) bool {
	if d < 1 || budget < 1 {
		return true
	}
	// Leaves.
	if !yield(dsl.Cwnd()) {
		return false
	}
	for _, s := range g.dsl.Signals {
		if !yield(dsl.Sig(s)) {
			return false
		}
	}
	for _, m := range g.dsl.Macros {
		if !yield(dsl.Mac(m)) {
			return false
		}
	}
	if !yield(dsl.Hole()) {
		return false
	}
	if d < 2 || budget < 2 {
		return true
	}

	// Unary operators.
	for _, op := range []dsl.Op{dsl.OpCube, dsl.OpCbrt} {
		if !g.hasOp(op) {
			continue
		}
		ok := g.genNum(d-1, budget-1, func(k *dsl.Node) bool {
			if !g.charge() {
				return false
			}
			n := &dsl.Node{Op: op, Kids: []*dsl.Node{k}}
			if !dsl.CanonicalAt(n) {
				return true
			}
			return yield(n)
		})
		if !ok {
			return false
		}
	}

	if budget < 3 {
		return true
	}
	// Binary operators.
	for _, op := range []dsl.Op{dsl.OpAdd, dsl.OpSub, dsl.OpMul, dsl.OpDiv} {
		if !g.hasOp(op) {
			continue
		}
		o := op
		ok := g.genNum(d-1, budget-2, func(a *dsl.Node) bool {
			return g.genNum(d-1, budget-1-a.Size(), func(b *dsl.Node) bool {
				if !g.charge() {
					return false
				}
				n := &dsl.Node{Op: o, Kids: []*dsl.Node{a, b}}
				if !dsl.CanonicalAt(n) {
					return true
				}
				return yield(n)
			})
		})
		if !ok {
			return false
		}
	}

	// Conditionals.
	if g.hasOp(dsl.OpCond) && d >= 3 && budget >= 5 {
		ok := g.genBool(d-1, budget-3, func(cond *dsl.Node) bool {
			return g.genNum(d-1, budget-1-cond.Size()-1, func(then *dsl.Node) bool {
				return g.genNum(d-1, budget-1-cond.Size()-then.Size(), func(els *dsl.Node) bool {
					if !g.charge() {
						return false
					}
					n := &dsl.Node{Op: dsl.OpCond, Kids: []*dsl.Node{cond, then, els}}
					if !dsl.CanonicalAt(n) {
						return true
					}
					return yield(n)
				})
			})
		})
		if !ok {
			return false
		}
	}
	return true
}

// genBool yields all canonical predicates with depth <= d, size <= budget.
func (g *oracleGen) genBool(d, budget int, yield func(*dsl.Node) bool) bool {
	if d < 2 || budget < 3 {
		return true
	}
	for _, op := range []dsl.Op{dsl.OpLt, dsl.OpModEq} {
		if !g.hasOp(op) {
			continue
		}
		o := op
		ok := g.genNum(d-1, budget-2, func(a *dsl.Node) bool {
			return g.genNum(d-1, budget-1-a.Size(), func(b *dsl.Node) bool {
				if !g.charge() {
					return false
				}
				n := &dsl.Node{Op: o, Kids: []*dsl.Node{a, b}}
				if !dsl.CanonicalAt(n) {
					return true
				}
				return yield(n)
			})
		})
		if !ok {
			return false
		}
	}
	return true
}
