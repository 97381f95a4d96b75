package rules

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"github.com/jockeysim/jockey/internal/vet"
)

// SeedFlow is a provenance (taint) analysis over seed values. The repo's
// reproduction guarantee requires every RNG in the deterministic packages to
// be seeded from the experiment's master seed through the stats derivation
// chain (DeriveSeed / DeriveSeedInt / DeriveSeedLabelInt / SplitMix64 /
// ReseedSource); a literal seed, or a seed laundered through an untracked
// helper, silently forks the replay universe. The analysis classifies each
// seed expression as
//
//	derived  — traceable to stats.DeriveSeed/DeriveSeedInt/DeriveSeedLabelInt,
//	           a tracked deriver helper, or a function parameter whose
//	           obligation is pushed to the callers (making the enclosing
//	           function itself a seed consumer);
//	dirty    — a literal, constant, or value produced by an untracked
//	           function.
//
// Struct-field and collection reads are a trusted boundary: the fill site
// carries the obligation instead (checked through Seed-suffixed composite
// literal keys). Seed-consumer and seed-deriver signatures are exported as
// facts, so the obligation follows calls across package boundaries: a
// helper in package A that feeds its parameter into rand.NewPCG makes every
// caller of A.Helper in a deterministic package subject to the check.
var SeedFlow = &vet.Analyzer{
	Name:      "seedflow",
	Doc:       "RNGs in the deterministic packages must be seeded from stats.DeriveSeed/DeriveSeedInt/DeriveSeedLabelInt (transitively, across packages); literal and laundered seeds break replay",
	Run:       runSeedFlow,
	FactTypes: []vet.Fact{new(SeedConsumerFact), new(SeedDeriverFact)},
}

// SeedConsumerFact marks a function that feeds the given parameter indices
// into an RNG (directly or through further consumers): callers must pass
// derived seeds at those positions.
type SeedConsumerFact struct {
	Params []int `json:"params"`
}

func (*SeedConsumerFact) AFact() {}

// SeedDeriverFact marks a function whose result is a derived seed: Always
// unconditionally (it calls DeriveSeed internally), or otherwise exactly
// when the arguments at Params are themselves derived.
type SeedDeriverFact struct {
	Always bool  `json:"always,omitempty"`
	Params []int `json:"params,omitempty"`
}

func (*SeedDeriverFact) AFact() {}

const statsPath = ModulePath + "/internal/stats"

// intrinsicDerivers always return a derived seed.
var intrinsicDerivers = map[string]bool{
	statsPath + ".DeriveSeed":         true,
	statsPath + ".DeriveSeedInt":      true,
	statsPath + ".DeriveSeedLabelInt": true,
}

// intrinsicPropagators return a derived seed exactly when the listed
// argument indices are derived.
var intrinsicPropagators = map[string][]int{
	statsPath + ".SplitMix64": {0},
}

// intrinsicConsumers are the RNG constructors and reseeders themselves: the
// listed argument indices are seeds and must be derived. Methods are keyed
// "pkg.Recv.Name".
var intrinsicConsumers = map[string][]int{
	"math/rand/v2.NewPCG":     {0, 1},
	"math/rand/v2.NewChaCha8": {0},
	"math/rand/v2.PCG.Seed":   {0, 1},
	"math/rand.NewSource":     {0},
	"math/rand.Rand.Seed":     {0},
}

// seedCls is the provenance lattice: dirty < param < derived. Joins across
// mixed expressions (a ^ b) keep the best operand — xor-folding a constant
// into a derived seed is still derived — while joins across alternatives
// (multiple assignments, multiple returns) keep the worst, because any of
// them may reach the use.
type seedCls int

const (
	clsDirty seedCls = iota
	clsParam
	clsDerived
	// clsSkip marks a recursive self-reference (z = mix(z)); it is the
	// identity of both joins — the other assignments decide.
	clsSkip
)

// seedVal is a classification plus its evidence: the parameters the value
// depends on (clsParam) or the reason it is dirty.
type seedVal struct {
	cls    seedCls
	params map[*types.Var]bool
	reason string
}

func dirty(reason string) seedVal { return seedVal{cls: clsDirty, reason: reason} }

// joinBest merges operands of one expression (best wins, param sets union).
func joinBest(a, b seedVal) seedVal {
	if a.cls == clsSkip {
		return b
	}
	if b.cls == clsSkip {
		return a
	}
	if a.cls < b.cls {
		a, b = b, a
	}
	if a.cls == clsParam && b.cls == clsParam {
		for v := range b.params {
			a.params[v] = true
		}
	}
	return a
}

// joinWorst merges alternative values that may each flow to the use (worst
// wins; param obligations accumulate so every alternative is covered).
func joinWorst(a, b seedVal) seedVal {
	if a.cls == clsSkip {
		return b
	}
	if b.cls == clsSkip {
		return a
	}
	if a.cls == clsParam && b.cls == clsParam {
		for v := range b.params {
			a.params[v] = true
		}
		return a
	}
	if a.cls > b.cls {
		return b
	}
	return a
}

// funcSummary is the deriver behavior of one function with a body.
type funcSummary struct {
	always bool
	params []int // result derived iff these params are derived; nil = not a deriver
	valid  bool
}

type seedflow struct {
	pass     *vet.Pass
	decls    map[*types.Func]*ast.FuncDecl
	visiting map[*types.Var]bool
	// summaries memoizes deriver classification per function; inProgress
	// breaks recursion (a self-recursive helper is not a tracked deriver).
	summaries  map[*types.Func]funcSummary
	inProgress map[*types.Func]bool
	// consumers maps local functions discovered to feed parameters into
	// RNGs to the parameter indices carrying the obligation.
	consumers map[*types.Func]map[int]bool
	reported  map[token.Pos]bool
	report    bool
}

func runSeedFlow(p *vet.Pass) error {
	a := &seedflow{
		pass:       p,
		decls:      map[*types.Func]*ast.FuncDecl{},
		visiting:   map[*types.Var]bool{},
		summaries:  map[*types.Func]funcSummary{},
		inProgress: map[*types.Func]bool{},
		consumers:  map[*types.Func]map[int]bool{},
		reported:   map[token.Pos]bool{},
		report:     isDeterministic(p.Pkg.Path()),
	}
	for _, f := range p.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fn, ok := p.Info.Defs[fd.Name].(*types.Func); ok {
				a.decls[fn] = fd
			}
		}
	}

	// Fixpoint: classifying a seed argument as parameter-dependent turns the
	// enclosing function into a consumer, whose own call sites must then be
	// rechecked. Diagnostics are position-deduplicated, so rescans are safe.
	for changed := true; changed; {
		changed = false
		for fn, fd := range a.decls {
			if a.scanBody(fn, fd) {
				changed = true
			}
		}
	}

	// Export facts so downstream packages inherit the obligations. Local
	// (unexported) consumers are still tracked above; the driver drops
	// un-addressable objects at encode time.
	for fn, idxs := range a.consumers {
		params := make([]int, 0, len(idxs))
		for i := range idxs {
			params = append(params, i)
		}
		sort.Ints(params)
		p.ExportObjectFact(fn, &SeedConsumerFact{Params: params})
	}
	for fn := range a.decls {
		if !fn.Exported() {
			continue
		}
		if sum := a.summary(fn); sum.valid {
			p.ExportObjectFact(fn, &SeedDeriverFact{Always: sum.always, Params: sum.params})
		}
	}
	return nil
}

// scanBody walks one function, classifying every seed argument at consumer
// call sites and every Seed-suffixed composite-literal field. It returns
// whether the consumer set grew.
func (a *seedflow) scanBody(fn *types.Func, fd *ast.FuncDecl) (changed bool) {
	reportHere := a.report && !vet.IsTestFile(a.pass.Fset, fd.Pos())
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.CallExpr:
			callee := a.staticCallee(e)
			if callee == nil {
				return true
			}
			for _, idx := range a.consumerParams(callee) {
				args := e.Args
				if idx >= len(args) {
					continue
				}
				if a.checkSeedArg(fn, args[idx], callee.Name(), reportHere) {
					changed = true
				}
			}
		case *ast.CompositeLit:
			// Config{Seed: x} and friends: the fill site of a seed-carrying
			// field owes a derived value, because field reads downstream are
			// trusted.
			for _, el := range e.Elts {
				kv, ok := el.(*ast.KeyValueExpr)
				if !ok {
					continue
				}
				key, ok := kv.Key.(*ast.Ident)
				if !ok || !strings.HasSuffix(key.Name, "Seed") {
					continue
				}
				if t := a.pass.Info.TypeOf(kv.Value); t == nil || !isIntegerType(t) {
					continue
				}
				if a.checkSeedArg(fn, kv.Value, key.Name+" field", reportHere) {
					changed = true
				}
			}
			if reportHere {
				a.checkUnseededState(e)
			}
		}
		return true
	})
	return changed
}

// checkSeedArg classifies one seed expression, reporting dirty values and
// promoting parameter-dependent ones into consumer obligations on fn.
func (a *seedflow) checkSeedArg(fn *types.Func, arg ast.Expr, sink string, reportHere bool) (changed bool) {
	v := a.classify(arg, fn)
	switch v.cls {
	case clsDirty:
		if reportHere && !a.reported[arg.Pos()] {
			a.reported[arg.Pos()] = true
			a.pass.Reportf(arg.Pos(), "seed reaching %s is %s; derive it from the master seed via stats.DeriveSeed/DeriveSeedInt/DeriveSeedLabelInt", sink, v.reason)
		}
	case clsParam:
		sig := fn.Type().(*types.Signature)
		for pv := range v.params {
			for i := 0; i < sig.Params().Len(); i++ {
				if sig.Params().At(i) != pv {
					continue
				}
				if a.consumers[fn] == nil {
					a.consumers[fn] = map[int]bool{}
				}
				if !a.consumers[fn][i] {
					a.consumers[fn][i] = true
					changed = true
				}
			}
		}
	}
	return changed
}

// checkUnseededState flags zero-state generator construction: a composite
// literal of rand.PCG/ChaCha8 starts at state 0 — an unseeded generator
// that every replay shares, defeating per-run seed derivation.
func (a *seedflow) checkUnseededState(lit *ast.CompositeLit) {
	t := a.pass.Info.TypeOf(lit)
	if t == nil {
		return
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return
	}
	pkg, name := named.Obj().Pkg().Path(), named.Obj().Name()
	if (pkg == "math/rand/v2" && (name == "PCG" || name == "ChaCha8")) && !a.reported[lit.Pos()] {
		a.reported[lit.Pos()] = true
		a.pass.Reportf(lit.Pos(), "zero-value %s.%s is an unseeded generator; construct it via stats.NewSource with a derived seed", pkg, name)
	}
}

// consumerParams returns the seed-parameter indices of callee, from the
// intrinsic table, the local fixpoint, or an imported cross-package fact.
func (a *seedflow) consumerParams(callee *types.Func) []int {
	if idxs, ok := intrinsicConsumers[funcKey(callee)]; ok {
		return idxs
	}
	if idxs := a.consumers[callee]; idxs != nil {
		out := make([]int, 0, len(idxs))
		for i := range idxs {
			out = append(out, i)
		}
		sort.Ints(out)
		return out
	}
	var fact SeedConsumerFact
	if a.pass.ImportObjectFact(callee, &fact) {
		return fact.Params
	}
	return nil
}

// summary computes (memoized) whether fn behaves as a seed deriver: a
// single-integer-result function whose every return value is derived, or
// derived conditionally on parameters.
func (a *seedflow) summary(fn *types.Func) funcSummary {
	if s, ok := a.summaries[fn]; ok {
		return s
	}
	if a.inProgress[fn] {
		return funcSummary{}
	}
	a.inProgress[fn] = true
	defer func() { a.inProgress[fn] = false }()

	s := funcSummary{}
	fd := a.decls[fn]
	sig, _ := fn.Type().(*types.Signature)
	if fd == nil || sig == nil || sig.Results().Len() != 1 || !isIntegerType(sig.Results().At(0).Type()) {
		a.summaries[fn] = s
		return s
	}
	var agg *seedVal
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // nested closures return to their own callers
		}
		ret, ok := n.(*ast.ReturnStmt)
		if !ok || len(ret.Results) != 1 {
			return true
		}
		v := a.classify(ret.Results[0], fn)
		if agg == nil {
			agg = &v
		} else {
			j := joinWorst(*agg, v)
			agg = &j
		}
		return true
	})
	if agg != nil {
		switch agg.cls {
		case clsDerived:
			s = funcSummary{always: true, valid: true}
		case clsParam:
			var idxs []int
			for pv := range agg.params {
				for i := 0; i < sig.Params().Len(); i++ {
					if sig.Params().At(i) == pv {
						idxs = append(idxs, i)
					}
				}
			}
			sort.Ints(idxs)
			s = funcSummary{params: idxs, valid: len(idxs) > 0}
		}
	}
	a.summaries[fn] = s
	return s
}

// classify computes the provenance of one seed expression within fn.
func (a *seedflow) classify(e ast.Expr, fn *types.Func) seedVal {
	// Constants (literals, consts, folded expressions) are the canonical
	// violation: the same seed in every run and every replica.
	if tv, ok := a.pass.Info.Types[e]; ok && tv.Value != nil {
		return dirty("a literal/constant")
	}
	switch x := e.(type) {
	case *ast.ParenExpr:
		return a.classify(x.X, fn)
	case *ast.CallExpr:
		return a.classifyCall(x, fn)
	case *ast.BinaryExpr:
		return joinBest(a.classify(x.X, fn), a.classify(x.Y, fn))
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			return dirty("an address-of expression, not a seed")
		}
		return a.classify(x.X, fn)
	case *ast.StarExpr:
		return seedVal{cls: clsDerived} // pointer deref: filler's obligation
	case *ast.IndexExpr:
		return seedVal{cls: clsDerived} // collection read: trusted boundary
	case *ast.SelectorExpr:
		return a.classifySelector(x, fn)
	case *ast.Ident:
		return a.classifyIdent(x, fn)
	}
	return dirty("not traceable to a stats seed derivation")
}

func (a *seedflow) classifyCall(call *ast.CallExpr, fn *types.Func) seedVal {
	// Conversions (uint64(x)) preserve provenance.
	if tv, ok := a.pass.Info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 {
			return a.classify(call.Args[0], fn)
		}
		return dirty("an untraceable conversion")
	}
	callee := a.staticCallee(call)
	if callee == nil {
		return dirty("produced by an indirect call")
	}
	key := funcKey(callee)
	if intrinsicDerivers[key] {
		return seedVal{cls: clsDerived}
	}
	if idxs, ok := intrinsicPropagators[key]; ok {
		return a.classifyArgJoin(call, idxs, fn)
	}
	// Cross-package deriver facts, then local summaries.
	var fact SeedDeriverFact
	if a.pass.ImportObjectFact(callee, &fact) {
		if fact.Always {
			return seedVal{cls: clsDerived}
		}
		return a.classifyArgJoin(call, fact.Params, fn)
	}
	if sum := a.summary(callee); sum.valid {
		if sum.always {
			return seedVal{cls: clsDerived}
		}
		return a.classifyArgJoin(call, sum.params, fn)
	}
	return dirty("laundered through " + callee.Name() + ", which is not a tracked seed deriver")
}

// classifyArgJoin classifies a propagating call: the result is as derived as
// the worst of the seed-relevant arguments.
func (a *seedflow) classifyArgJoin(call *ast.CallExpr, idxs []int, fn *types.Func) seedVal {
	var agg *seedVal
	for _, i := range idxs {
		if i >= len(call.Args) {
			continue
		}
		v := a.classify(call.Args[i], fn)
		if agg == nil {
			agg = &v
		} else {
			j := joinWorst(*agg, v)
			agg = &j
		}
	}
	if agg == nil {
		return dirty("a propagating deriver called without its seed argument")
	}
	return *agg
}

func (a *seedflow) classifySelector(sel *ast.SelectorExpr, fn *types.Func) seedVal {
	if s, ok := a.pass.Info.Selections[sel]; ok && s.Kind() == types.FieldVal {
		// Struct-field read: the Seed-field fill-site check owns this.
		return seedVal{cls: clsDerived}
	}
	obj := a.pass.Info.Uses[sel.Sel]
	switch obj.(type) {
	case *types.Const:
		return dirty("a constant")
	case *types.Var:
		return dirty("a package-level variable, not a derived seed")
	}
	return dirty("not traceable to a stats seed derivation")
}

func (a *seedflow) classifyIdent(id *ast.Ident, fn *types.Func) seedVal {
	obj := a.pass.Info.ObjectOf(id)
	v, ok := obj.(*types.Var)
	if !ok {
		return dirty("not a seed-carrying variable")
	}
	if v.IsField() {
		return seedVal{cls: clsDerived}
	}
	sig := fn.Type().(*types.Signature)
	for i := 0; i < sig.Params().Len(); i++ {
		if sig.Params().At(i) == v {
			return seedVal{cls: clsParam, params: map[*types.Var]bool{v: true}}
		}
	}
	if v.Parent() != nil && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
		return dirty("a package-level variable, not a derived seed")
	}
	// Local variable: flow-insensitive join over every assignment to it in
	// the function body. No visible assignment (closure capture, range
	// variable) is conservatively dirty. Self-referential assignments
	// (z = mix(z)) classify as clsSkip so the other assignments decide.
	fd := a.decls[fn]
	if fd == nil {
		return dirty("assigned outside the analyzed function")
	}
	if a.visiting[v] {
		return seedVal{cls: clsSkip}
	}
	a.visiting[v] = true
	defer delete(a.visiting, v)
	var agg *seedVal
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range st.Lhs {
				lid, ok := lhs.(*ast.Ident)
				if !ok || a.pass.Info.ObjectOf(lid) != v {
					continue
				}
				var val seedVal
				if len(st.Rhs) == len(st.Lhs) {
					val = a.classify(st.Rhs[i], fn)
				} else {
					val = dirty("unpacked from a multi-value call")
				}
				if agg == nil {
					agg = &val
				} else {
					j := joinWorst(*agg, val)
					agg = &j
				}
			}
		case *ast.ValueSpec:
			for i, name := range st.Names {
				if a.pass.Info.ObjectOf(name) != v || i >= len(st.Values) {
					continue
				}
				val := a.classify(st.Values[i], fn)
				if agg == nil {
					agg = &val
				} else {
					j := joinWorst(*agg, val)
					agg = &j
				}
			}
		}
		return true
	})
	if agg == nil || agg.cls == clsSkip {
		return dirty("a variable with no traceable assignment")
	}
	return *agg
}

// staticCallee resolves a call to its static *types.Func, if any.
func (a *seedflow) staticCallee(call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch f := call.Fun.(type) {
	case *ast.Ident:
		obj = a.pass.Info.Uses[f]
	case *ast.SelectorExpr:
		obj = a.pass.Info.Uses[f.Sel]
	case *ast.IndexExpr: // generic instantiation f[T](...)
		if id, ok := f.X.(*ast.Ident); ok {
			obj = a.pass.Info.Uses[id]
		}
	}
	fn, _ := obj.(*types.Func)
	return fn
}

// funcKey renders a function as "pkg.Name" or "pkg.Recv.Name" for the
// intrinsic tables.
func funcKey(fn *types.Func) string {
	if fn.Pkg() == nil {
		return fn.Name()
	}
	key := fn.Pkg().Path() + "."
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			key += named.Obj().Name() + "."
		}
	}
	return key + fn.Name()
}

func isIntegerType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}
