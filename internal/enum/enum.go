// Package enum enumerates the sketch search space (§4.1 of the paper): all
// canonical, type-correct and (optionally) unit-correct expression trees of
// a sub-DSL up to a depth and size bound. It stands in for the paper's
// Z3-based enumerator — where the paper iteratively queries an SMT solver
// and blocks previous solutions, this package generates the identical set
// directly, lazily, and in a deterministic order.
//
// The search space is partitioned into buckets keyed by the exact set of
// operators a sketch uses — the bucket discriminator the paper found to
// best preserve behavioral similarity (§4.4, option 2).
package enum

import (
	"iter"
	"math"
	"slices"
	"sort"

	"repro/internal/dsl"
	"repro/internal/obs"
)

// Enumerator generates the sketch space of one sub-DSL.
type Enumerator struct {
	// D is the sub-DSL whose space is enumerated.
	D *dsl.DSL
	// Obs, when set, receives the enumerator's instruments:
	//
	//	counters  enum.candidates (scan-budget charges, as defined at
	//	          BucketLimited), enum.sketches (admissible sketches
	//	          yielded), enum.scan_budget_exhausted (enumerations cut
	//	          short by their scan budget)
	//
	// Nil disables instrumentation.
	Obs *obs.Registry
}

// New returns an enumerator for the sub-DSL.
func New(d *dsl.DSL) *Enumerator { return &Enumerator{D: d} }

// All yields every admissible sketch: canonical per dsl.IsCanonical,
// within the DSL's depth/size budget, and producing bytes under the unit
// checker when the DSL enables it. Generation proceeds by iterative
// deepening — all depth-1 sketches, then depth-2, ... — so samples drawn
// from a bucket's prefix are the simplest members of that bucket,
// mirroring the small-model-first order of the paper's SMT enumeration.
func (e *Enumerator) All() iter.Seq[*dsl.Node] {
	return func(yield func(*dsl.Node) bool) {
		e.enumerateLimited(fullOpSet(e.D), false, 0, yield)
	}
}

// Bucket yields the sketches whose operator set is exactly ops.
func (e *Enumerator) Bucket(ops dsl.OpSet) iter.Seq[*dsl.Node] {
	return e.BucketLimited(ops, 0)
}

// BucketLimited is Bucket with a scan budget. The budget is charged in
// candidates: operator nodes a top-down generator builds while deepening —
// genNum(d, s) tries every operator over every combination of operands
// that genNum(d-1, ·) yields, re-running those inner calls for each outer
// operand. Every such node counts once per construction, whether it is
// the root or an inner subtree, canonical or not, new or a tree an earlier
// deepening stage already yielded; leaves are free. Enumeration stops at
// the (scanLimit+1)th candidate, so a limit bounds the generator's work
// even in stages that yield nothing, and the count of sketches before the
// stop is a fixed function of (DSL, ops, scanLimit). A zero limit scans
// exhaustively. The limit is the in-process analogue of the paper's
// per-run wall-clock timeout: highly selective buckets deep in a large DSL
// stop consuming time once their budget is spent.
func (e *Enumerator) BucketLimited(ops dsl.OpSet, scanLimit int) iter.Seq[*dsl.Node] {
	return func(yield func(*dsl.Node) bool) {
		e.enumerateLimited(ops, true, scanLimit, yield)
	}
}

// enumerateLimited runs the iterative-deepening stages over the operators
// in allowed, yielding only sketches whose operator set is exactly allowed
// when exact is set. It charges candidates by the rule BucketLimited
// states, without building them: inner candidates come from the memo
// lists' recorded counts, and only the stage roots are visited one by one.
func (e *Enumerator) enumerateLimited(allowed dsl.OpSet, exact bool, scanLimit int, yield func(*dsl.Node) bool) {
	budget := e.D.MaxNodes
	if budget <= 0 {
		budget = 1 << 20
	}
	g := newGen(e.D, allowed, budget, scanLimit)
	t := &top{
		g: g, bucket: allowed, exact: exact, yield: yield,
		candidates: e.Obs.Counter("enum.candidates"),
		sketches:   e.Obs.Counter("enum.sketches"),
	}
	spent := 0 // candidates charged by the finished stages
	defer func() {
		t.candidates.Add(int64(spent - t.reported))
		if scanLimit > 0 && spent > scanLimit {
			e.Obs.Counter("enum.scan_budget_exhausted").Inc()
		}
	}()
	for depth := 1; depth <= e.D.MaxDepth; depth++ {
		t.depth, t.base = depth, spent
		stageCap := g.cap
		if scanLimit > 0 {
			stageCap = scanLimit - spent
		}
		r := g.newRun(depth, budget, false, t, stageCap)
		for r.step() {
		}
		spent += r.spent
		if !r.ok {
			return
		}
	}
}

// Count exhaustively counts the admissible sketch space (§6.1 reports this
// for the Reno DSL at depth 3).
func (e *Enumerator) Count() int {
	n := 0
	for range e.All() {
		n++
	}
	return n
}

// fullOpSet returns the DSL's operator universe (Gt folded into Lt).
func fullOpSet(d *dsl.DSL) dsl.OpSet {
	var s dsl.OpSet
	for _, op := range d.NumOps {
		s = s.With(op)
	}
	for _, op := range d.BoolOps {
		if op == dsl.OpGt {
			op = dsl.OpLt
		}
		s = s.With(op)
	}
	return s
}

// Buckets returns every feasible bucket key: subsets of the operator
// universe in which conditionals and predicates appear together (a bool
// operator only ever occurs under a cond, and a cond requires a predicate).
// The empty set (single-leaf sketches) is included. Keys are returned in a
// deterministic order.
func (e *Enumerator) Buckets() []dsl.OpSet {
	universe := []dsl.Op{}
	for _, op := range e.D.NumOps {
		universe = append(universe, op)
	}
	boolOps := []dsl.Op{}
	for _, op := range e.D.BoolOps {
		if op == dsl.OpGt {
			op = dsl.OpLt
		}
		boolOps = append(boolOps, op)
	}
	// Split cond out of the numeric universe: its presence is tied to the
	// bool ops.
	numOps := []dsl.Op{}
	hasCond := false
	for _, op := range universe {
		if op == dsl.OpCond {
			hasCond = true
			continue
		}
		numOps = append(numOps, op)
	}

	var keys []dsl.OpSet
	for mask := 0; mask < 1<<len(numOps); mask++ {
		var base dsl.OpSet
		for i, op := range numOps {
			if mask&(1<<i) != 0 {
				base = base.With(op)
			}
		}
		keys = append(keys, base)
		if !hasCond {
			continue
		}
		for bmask := 1; bmask < 1<<len(boolOps); bmask++ {
			s := base.With(dsl.OpCond)
			for i, op := range boolOps {
				if bmask&(1<<i) != 0 {
					s = s.With(op)
				}
			}
			keys = append(keys, s)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// opKeyOf folds Gt into Lt for bucket membership.
func opKeyOf(op dsl.Op) dsl.Op {
	if op == dsl.OpGt {
		return dsl.OpLt
	}
	return op
}

// gen replays, for one operator set, the top-down generator BucketLimited
// charges by. That generator's genNum(d, s) yields every canonical numeric
// tree of depth <= d and size <= s: the leaves, then each unary, binary and
// conditional operator over the operands genNum(d-1, ·) and genBool(d-1, ·)
// yield, re-running the inner call for every outer operand. gen runs each
// inner call once instead, into a list memoized by (depth, size bound),
// and replays it from there (see run).
type gen struct {
	// Operators the DSL has and the operator set allows, in the order the
	// generator tries them.
	unary, binary, cmps []dsl.Op
	cond                bool
	// cap is the scan limit (MaxInt when unlimited): a list stops at its
	// first charge past it, since any run that reads that far stops there.
	cap     int
	leaves  []*term
	maxSize []int // by depth: a size bound every tree of that depth fits
	// nums and preds memoize genNum and genBool by [depth][size bound].
	nums, preds [][]*list
	entries     int // trees the lists hold
	// scratch holds the candidate under test, so rejected candidates cost
	// no allocation.
	scratch     dsl.Node
	scratchKids [3]*dsl.Node

	// Unit classes, kept when the DSL checks units (see unitClass).
	units     bool
	classIDs  map[unitClass]int32
	classOf   map[unitKey]int32
	handlerOK []bool // by class: dsl.CheckHandlerUnits passes
}

// newGen prepares a generator over the DSL operators allowed permits, for
// trees of at most budget nodes.
func newGen(d *dsl.DSL, allowed dsl.OpSet, budget, scanLimit int) *gen {
	has := func(op dsl.Op) bool {
		return allowed.Has(opKeyOf(op)) && (slices.Contains(d.NumOps, op) || slices.Contains(d.BoolOps, op))
	}
	pick := func(ops ...dsl.Op) []dsl.Op {
		var out []dsl.Op
		for _, op := range ops {
			if has(op) {
				out = append(out, op)
			}
		}
		return out
	}
	g := &gen{
		unary:  pick(dsl.OpCube, dsl.OpCbrt),
		binary: pick(dsl.OpAdd, dsl.OpSub, dsl.OpMul, dsl.OpDiv),
		cmps:   pick(dsl.OpLt, dsl.OpModEq),
		cond:   has(dsl.OpCond),
		cap:    math.MaxInt,
		units:  d.UnitCheck,
	}
	if g.units {
		g.classIDs, g.classOf = map[unitClass]int32{}, map[unitKey]int32{}
	}
	if scanLimit > 0 {
		g.cap = scanLimit
	}
	leaves := []*dsl.Node{dsl.Cwnd()}
	for _, s := range d.Signals {
		leaves = append(leaves, dsl.Sig(s))
	}
	for _, m := range d.Macros {
		leaves = append(leaves, dsl.Mac(m))
	}
	leaves = append(leaves, dsl.Hole())
	for _, n := range leaves {
		t := &term{n: *n, size: 1, depth: 1}
		if g.units {
			t.unit = g.classify(&t.n, nil)
		}
		g.leaves = append(g.leaves, t)
	}
	// No operator has more than three operands, so 1 + 3*maxSize[d-1]
	// bounds the trees of depth d. genNum(d, s) and genBool(d, s) behave
	// identically for every s at or above that bound (every size test and
	// operand bound they derive from s is then met too), so memo keys clamp
	// s to it.
	g.maxSize = make([]int, d.MaxDepth+1)
	for i := 1; i <= d.MaxDepth; i++ {
		g.maxSize[i] = min(budget, 1+3*g.maxSize[i-1])
	}
	g.nums = make([][]*list, d.MaxDepth+1)
	g.preds = make([][]*list, d.MaxDepth+1)
	return g
}

// term is one tree in a generator's lists, in one allocation, with the
// facts the stage filters need precomputed. Its node's Kids point at the
// nodes of its operands' terms, so lists share subtrees.
type term struct {
	n           dsl.Node
	kids        [3]*dsl.Node // backs n.Kids
	size, depth int
	ops         dsl.OpSet
	unit        int32 // unit class, when the DSL checks units
}

// newTerm builds the term op over kids.
func (g *gen) newTerm(op dsl.Op, kids []*term) *term {
	t := &term{size: 1, depth: 1, ops: dsl.OpSet(0).With(opKeyOf(op))}
	t.n = dsl.Node{Op: op, Kids: t.kids[:len(kids):len(kids)]}
	for i, kid := range kids {
		t.kids[i] = &kid.n
		t.size += kid.size
		t.depth = max(t.depth, kid.depth+1)
		t.ops |= kid.ops
	}
	if g.units {
		t.unit = g.unitClassOf(op, kids, &t.n)
	}
	return t
}

// unitClass is what dsl's unit check of a tree reads from one operand:
// the unit a numeric operand checks to, or that it fails; for a predicate
// operand, its operator and its operands' classes. dsl.UnitOf is
// compositional — a tree's unit or failure depends only on its operator
// and on the check's findings for its operands — so every tree with the
// same operator over operands of the same classes checks alike. The
// generator therefore runs the checker once per such combination, on the
// first tree that has it, and decides every later one by lookup; running
// it per candidate built an error message for each of the many that fail.
type unitClass struct {
	unit dsl.Unit
	bad  bool
	pred dsl.Op
	a, b int32
}

// unitKey is a tree's operator and its operands' unit classes.
type unitKey struct {
	op   dsl.Op
	kids [3]int32
}

// unitClassOf returns the unit class of n, which is op over kids.
func (g *gen) unitClassOf(op dsl.Op, kids []*term, n *dsl.Node) int32 {
	k := unitKey{op: op}
	for i, kid := range kids {
		k.kids[i] = kid.unit
	}
	id, ok := g.classOf[k]
	if !ok {
		id = g.classify(n, kids)
		g.classOf[k] = id
	}
	return id
}

// classify runs the unit checker on n, whose operands are kids, and
// returns its class.
func (g *gen) classify(n *dsl.Node, kids []*term) int32 {
	var c unitClass
	if n.Op.IsBool() {
		c = unitClass{pred: n.Op, a: kids[0].unit, b: kids[1].unit}
	} else {
		u, err := dsl.UnitOf(n)
		c = unitClass{unit: u, bad: err != nil}
	}
	id, ok := g.classIDs[c]
	if !ok {
		id = int32(len(g.handlerOK))
		g.classIDs[c] = id
		g.handlerOK = append(g.handlerOK, !n.Op.IsBool() && dsl.CheckHandlerUnits(n) == nil)
	}
	return id
}

// candidate loads op over kids into the scratch node. The node is valid
// until the next call.
func (g *gen) candidate(op dsl.Op, kids []*term) *dsl.Node {
	for i, k := range kids {
		g.scratchKids[i] = &k.n
	}
	g.scratch = dsl.Node{Op: op, Kids: g.scratchKids[:len(kids)]}
	return &g.scratch
}

// list is the memo of one inner genNum or genBool call: the trees it
// yields in order, each with the candidates the call had charged when it
// yielded the tree, and, once done, the charge of the whole call. A list
// grows lazily, one tree at a time, as runs read past its end, so it holds
// only what some run has needed. A call that would charge more than the
// generator's cap ends at its last tree within the cap, with total cap+1:
// any run reading that far stops there.
//
// Lists stop growing once the generator's lists hold memoEntries trees
// between them. Past the end of such a list, each reader replays the rest
// of the call on its own (see cursor.take), trading the memo's speed for
// bounded memory, as the unmemoized generator did: an unlimited scan of a
// large space would otherwise keep most of it.
type list struct {
	g     *gen
	ents  []entry
	run   *run // the call, paused after ents[len(ents)-1]; nil once done
	done  bool
	total int
}

type entry struct {
	t     *term
	spent int
}

// empty memoizes the calls whose bounds admit no tree.
var empty = &list{done: true}

// memoEntries bounds the trees one generator's lists hold. A variable so
// tests can exercise the replay past it.
var memoEntries = 1 << 17

// grow extends l by one tree, or completes it, unless the memo is full.
func (l *list) grow() {
	if l.g.entries >= memoEntries {
		return
	}
	for n := len(l.ents); len(l.ents) == n && l.run.step(); {
	}
	if l.run.done {
		l.total, l.done, l.run = l.run.spent, true, nil
	}
}

func (l *list) leaf(t *term, spent int) bool {
	l.ents = append(l.ents, entry{t, spent})
	l.g.entries++
	return true
}

func (l *list) node(op dsl.Op, kids []*term, spent int) bool {
	if dsl.CanonicalAt(l.g.candidate(op, kids)) {
		l.ents = append(l.ents, entry{l.g.newTerm(op, kids), spent})
		l.g.entries++
	}
	return true
}

// numList returns the memo of genNum(d, s).
func (g *gen) numList(d, s int) *list { return g.memo(g.nums, d, s, false) }

// predList returns the memo of genBool(d, s).
func (g *gen) predList(d, s int) *list { return g.memo(g.preds, d, s, true) }

func (g *gen) memo(tab [][]*list, d, s int, pred bool) *list {
	if d < 1 || s < 1 {
		return empty
	}
	s = min(s, g.maxSize[d])
	if tab[d] == nil {
		tab[d] = make([]*list, g.maxSize[d]+1)
	}
	l := tab[d][s]
	if l == nil {
		l = &list{g: g}
		l.run = g.newRun(d, s, pred, l, g.cap)
		tab[d][s] = l
	}
	return l
}

// sink receives the trees a run yields, each with the candidates charged
// so far, that tree's own included. Returning false stops the run. kids
// is only valid during the call.
type sink interface {
	leaf(t *term, spent int) bool
	node(op dsl.Op, kids []*term, spent int) bool
}

// run is a resumable replay of one genNum(d, s) or genBool(d, s) call.
// The call's operand loops are explicit cursors over the lists of the
// inner calls, so a run can pause after any tree. spent counts the
// candidates the call has charged; the run ends when the call does, when
// its sink declines a tree, or when spent passes cap, leaving spent at
// cap+1 — the charge at which the generator stops.
type run struct {
	g    *gen
	sink sink
	d, s int
	leaf int      // leaves offered so far
	ops  []dsl.Op // ops[0] is being tried, the rest are still to come
	// lv[:open] are the operand loops of ops[0], outermost first; it has
	// arity operands.
	lv          [3]cursor
	open, arity int
	kids        [3]*term
	cap, spent  int
	done, ok    bool // ended; ended because the call did
}

// cursor is one operand loop: a pass over the list of an inner call.
type cursor struct {
	l    *list
	next int // index of the next entry
	prev int // the inner call's charge at the entry taken last
	// tail replays the call past the end of l, once l stops growing,
	// into out.
	tail *run
	out  *slot
}

// take returns the next tree of the cursor's call, or false at its end.
func (c *cursor) take() (entry, bool) {
	l := c.l
	if c.tail == nil {
		if c.next == len(l.ents) && !l.done {
			l.grow()
		}
		if c.next < len(l.ents) {
			c.next++
			return l.ents[c.next-1], true
		}
		if l.done {
			return entry{}, false
		}
		// The memo is full: replay the rest of the call from where l's
		// own run paused.
		c.tail, c.out = l.run.clone()
	}
	for c.out.e.t == nil && c.tail.step() {
	}
	e := c.out.e
	c.out.e = entry{}
	return e, e.t != nil
}

// total is the charge of the cursor's whole call; valid once take has
// reported its end.
func (c *cursor) total() int {
	if c.tail != nil {
		return c.tail.spent
	}
	return c.l.total
}

// clone returns a tail: a copy of r that goes on from where r paused,
// leaving r as it is, and hands its trees to the returned slot.
func (r *run) clone() (*run, *slot) {
	c := *r
	out := &slot{g: r.g}
	c.sink = out
	for i := range c.lv[:c.open] {
		if c.lv[i].tail != nil {
			c.lv[i].tail, c.lv[i].out = c.lv[i].tail.clone()
		}
	}
	return &c, out
}

// slot is the sink of a tail: it holds the tree the tail yielded last.
type slot struct {
	g *gen
	e entry
}

func (s *slot) leaf(t *term, spent int) bool {
	s.e = entry{t, spent}
	return true
}

func (s *slot) node(op dsl.Op, kids []*term, spent int) bool {
	if dsl.CanonicalAt(s.g.candidate(op, kids)) {
		s.e = entry{s.g.newTerm(op, kids), spent}
	}
	return true
}

// newRun prepares the replay of genNum(d, s), or genBool(d, s) if pred,
// with cap limit.
func (g *gen) newRun(d, s int, pred bool, sink sink, limit int) *run {
	r := &run{g: g, sink: sink, d: d, s: s, cap: limit}
	switch {
	case pred:
		r.leaf = len(g.leaves)
		if d >= 2 && s >= 3 {
			r.ops = g.cmps
		}
	case d >= 2 && s >= 2:
		r.ops = append(r.ops, g.unary...)
		if s >= 3 {
			r.ops = append(r.ops, g.binary...)
		}
		if g.cond && d >= 3 && s >= 5 {
			r.ops = append(r.ops, dsl.OpCond)
		}
	}
	return r
}

// charge adds n candidates and reports whether the run is within its cap.
func (r *run) charge(n int) bool {
	r.spent += n
	if r.spent > r.cap {
		r.spent, r.done = r.cap+1, true
	}
	return !r.done
}

// step offers the sink the next tree or candidate of the call, charging
// what the call charged up to it. It reports false once the run has ended.
func (r *run) step() bool {
	g := r.g
	if r.leaf < len(g.leaves) {
		t := g.leaves[r.leaf]
		r.leaf++
		r.done = !r.sink.leaf(t, r.spent)
		return !r.done
	}
	for !r.done {
		if r.open == 0 {
			if len(r.ops) == 0 {
				r.done, r.ok = true, true
				break
			}
			r.arity = arity(r.ops[0])
			r.push()
			continue
		}
		c := &r.lv[r.open-1]
		e, ok := c.take()
		if !ok {
			// The inner call has ended: charge what it charged after its
			// last tree and close the loop.
			if r.charge(c.total() - c.prev) {
				if r.open--; r.open == 0 {
					r.ops = r.ops[1:]
				}
			}
			continue
		}
		if !r.charge(e.spent - c.prev) {
			break
		}
		c.prev = e.spent
		r.kids[r.open-1] = e.t
		if r.open < r.arity {
			r.push()
			continue
		}
		if !r.charge(1) {
			break
		}
		r.done = !r.sink.node(r.ops[0], r.kids[:r.arity], r.spent)
		return !r.done
	}
	return false
}

// push opens the next operand loop of ops[0]. As in the generator, each
// operand may use the size bound less the root, the operands before it
// and one node for each operand after it.
func (r *run) push() {
	k := r.open
	s := r.s - r.arity + k
	for _, t := range r.kids[:k] {
		s -= t.size
	}
	l := r.g.numList(r.d-1, s)
	if r.ops[0] == dsl.OpCond && k == 0 {
		l = r.g.predList(r.d-1, s)
	}
	r.lv[k] = cursor{l: l}
	r.open++
}

// arity is the operand count of an operator the generator tries.
func arity(op dsl.Op) int {
	switch op {
	case dsl.OpCube, dsl.OpCbrt:
		return 1
	case dsl.OpCond:
		return 3
	}
	return 2
}

// top is the sink of one iterative-deepening stage: it passes on the roots
// of exactly the stage's depth that are in the bucket, canonical and
// (when the DSL checks units) bytes-valued, each as a fresh copy the
// caller owns, and keeps the candidates counter in step with the charge at
// every yield.
type top struct {
	g      *gen
	bucket dsl.OpSet
	exact  bool
	yield  func(*dsl.Node) bool

	depth    int
	base     int // candidates charged before this stage
	reported int // candidates already added to the counter

	candidates, sketches *obs.Counter
}

func (t *top) leaf(l *term, spent int) bool {
	if t.depth != 1 || (t.exact && t.bucket != 0) || (t.g.units && !t.g.handlerOK[l.unit]) {
		return true
	}
	return t.emit(&l.n, 1, spent)
}

func (t *top) node(op dsl.Op, kids []*term, spent int) bool {
	depth, size, ops := 1, 1, dsl.OpSet(0).With(opKeyOf(op))
	for _, k := range kids {
		depth = max(depth, k.depth+1)
		size += k.size
		ops |= k.ops
	}
	if depth != t.depth || (t.exact && ops != t.bucket) {
		return true
	}
	g := t.g
	n := g.candidate(op, kids)
	if !dsl.CanonicalAt(n) || (g.units && !g.handlerOK[g.unitClassOf(op, kids, n)]) {
		return true
	}
	return t.emit(n, size, spent)
}

func (t *top) emit(n *dsl.Node, size, spent int) bool {
	t.candidates.Add(int64(t.base + spent - t.reported))
	t.reported = t.base + spent
	t.sketches.Inc()
	return t.yield(own(n, size))
}

// own deep-copies n, a tree of size nodes, like n.Clone, for the caller to
// keep and mutate, but in two allocations: one slab for the nodes and one
// for their Kids. Clone's two allocations per node made copying the
// yielded sketches half the cost of an exhaustive Reno enumeration.
func own(n *dsl.Node, size int) *dsl.Node {
	c := copier{nodes: make([]dsl.Node, 0, size), kids: make([]*dsl.Node, 0, size-1)}
	return c.copy(n)
}

type copier struct {
	nodes []dsl.Node
	kids  []*dsl.Node
}

func (c *copier) copy(n *dsl.Node) *dsl.Node {
	c.nodes = append(c.nodes, dsl.Node{Op: n.Op, Sig: n.Sig, Mac: n.Mac, Bound: n.Bound, Value: n.Value})
	m := &c.nodes[len(c.nodes)-1]
	if len(n.Kids) > 0 {
		at := len(c.kids)
		c.kids = append(c.kids, n.Kids...)
		m.Kids = c.kids[at:len(c.kids):len(c.kids)]
		for i, k := range n.Kids {
			m.Kids[i] = c.copy(k)
		}
	}
	return m
}
