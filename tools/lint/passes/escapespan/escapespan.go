// Package escapespan enforces the zero-copy contract of the output
// path (DESIGN §5c): the byte spans a run hands out — Match.Value in a
// callback, the receiver's bound record buffer inside a Sink.Span
// implementation, the slice a Value.Raw() returns — alias the input
// buffer and die with the record. Retaining one (storing it outside
// the function, returning it, sending it) without an explicit copy is
// the lazy-materialization dangling-span hazard simdjson On-Demand
// documents; a copy (append([]byte(nil), v...), copy, string(v)) is
// the sanctioned way out.
//
// escapespan subsumes the earlier spanretain analyzer and extends it
// across call boundaries: every function with []byte parameters gets
// an interprocedural EscapeFact — which parameters it retains (stores
// beyond the call, sends) and which it returns. Passing a span to a
// function summarized as retaining its argument is flagged at the call
// site, and a call summarized as returning its argument propagates the
// span into whatever the result is bound to, so a helper can no longer
// launder a retention the direct store would have been flagged for.
// Passing a span to an unknown callee (interface method, function
// value) remains delivery, not retention.
package escapespan

import (
	"go/ast"
	"go/token"
	"go/types"

	"jsonski/tools/lint/analysis"
	"strconv"
	"strings"
)

var Analyzer = &analysis.Analyzer{
	Name: "escapespan",
	Doc:  "zero-copy match spans must not be stored, returned, or sent without a copy",
	Run:  run,
}

// EscapeFact summarizes how a function treats its []byte parameters:
// Retains[i] — parameter i is stored beyond the call or sent;
// Returns[i] — parameter i aliases one of the results. Exported for
// every function with at least one []byte parameter, so an existing
// all-false fact distinguishes "seen and harmless" from "unknown".
type EscapeFact struct {
	Retains []bool
	Returns []bool
}

func (*EscapeFact) AFact() {}

func (f *EscapeFact) String() string {
	return "retains(" + indexList(f.Retains) + ") returns(" + indexList(f.Returns) + ")"
}

// indexList renders the set bits of a summary vector ("0,2"), the
// form the analysistest fact assertions match against.
func indexList(v []bool) string {
	var idx []string
	for i, b := range v {
		if b {
			idx = append(idx, strconv.Itoa(i))
		}
	}
	return strings.Join(idx, ",")
}

func run(pass *analysis.Pass) error {
	// Phase 1: escape summaries, iterated to a package-local fixpoint so
	// helpers that retain through other helpers converge.
	var decls []*ast.FuncDecl
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				decls = append(decls, fd)
			}
		}
	}
	for round := 0; round < 5; round++ {
		changed := false
		for _, fd := range decls {
			if summarize(pass, fd) {
				changed = true
			}
		}
		if !changed {
			break
		}
	}

	// Phase 2: retention checks at every span root.
	analysis.InspectStack(pass.Files, func(n ast.Node, stack []ast.Node) bool {
		switch fn := n.(type) {
		case *ast.FuncDecl:
			if fn.Body == nil {
				return true
			}
			if recv, fields := spanMethod(pass, fn); recv != nil {
				checkBody(pass, fn.Body, func(e ast.Expr) bool {
					return isRecvFieldSpan(pass, e, recv, fields)
				}, false, nil)
			}
			if params := matchParams(pass, fn.Type); len(params) > 0 {
				checkBody(pass, fn.Body, func(e ast.Expr) bool {
					return isMatchValue(pass, e, params)
				}, false, nil)
			}
			// Raw spans scope to the innermost function: a span captured by
			// a nested literal may outlive the navigation that produced it,
			// so each literal is checked as its own retention boundary
			// (pruneLits) when InspectStack reaches it below.
			checkBody(pass, fn.Body, func(e ast.Expr) bool {
				return isRawSpanCall(pass, e)
			}, true, nil)
		case *ast.FuncLit:
			checkBody(pass, fn.Body, func(e ast.Expr) bool {
				return isRawSpanCall(pass, e)
			}, true, nil)
			if params := matchParams(pass, fn.Type); len(params) > 0 {
				checkBody(pass, fn.Body, func(e ast.Expr) bool {
					return isMatchValue(pass, e, params)
				}, false, nil)
				return false // already checked; don't re-enter via outer decls
			}
		}
		return true
	})
	return nil
}

// summarize computes fd's EscapeFact and exports it when it changed,
// reporting whether it did.
func summarize(pass *analysis.Pass, fd *ast.FuncDecl) bool {
	fnObj, _ := pass.Info.Defs[fd.Name].(*types.Func)
	if fnObj == nil {
		return false
	}
	sig, _ := fnObj.Type().(*types.Signature)
	if sig == nil {
		return false
	}
	var byteParams []int
	for i := 0; i < sig.Params().Len(); i++ {
		if isByteSlice(sig.Params().At(i).Type()) {
			byteParams = append(byteParams, i)
		}
	}
	if len(byteParams) == 0 {
		return false
	}
	fact := &EscapeFact{
		Retains: make([]bool, sig.Params().Len()),
		Returns: make([]bool, sig.Params().Len()),
	}
	for _, i := range byteParams {
		obj := sig.Params().At(i)
		events := collectEvents(pass, fd.Body, func(e ast.Expr) bool {
			return isParamSpan(pass, e, obj)
		}, false)
		for _, ev := range events {
			if ev.kind == "return" {
				fact.Returns[i] = true
			} else {
				fact.Retains[i] = true
			}
		}
	}
	var old EscapeFact
	if pass.ImportObjectFact(fnObj, &old) &&
		equalBools(old.Retains, fact.Retains) && equalBools(old.Returns, fact.Returns) {
		return false
	}
	pass.ExportObjectFact(fnObj, fact)
	return true
}

func equalBools(a, b []bool) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// event is one retention found by the shared walker.
type event struct {
	kind string // "return", "send", "store-field", "store-var", "callee-retains"
	pos  token.Pos
	name string // variable name (store-var) or callee name (callee-retains)
}

// checkBody flags every retention of an aliasing expression inside one
// span-delivery function. With pruneLits set, nested function literals
// are skipped — each literal is checked as its own retention boundary
// by the caller. A non-nil sink collects instead of reporting.
func checkBody(pass *analysis.Pass, body *ast.BlockStmt, isRoot func(ast.Expr) bool, pruneLits bool, sink *[]event) {
	for _, ev := range collectEvents(pass, body, isRoot, pruneLits) {
		if sink != nil {
			*sink = append(*sink, ev)
			continue
		}
		switch ev.kind {
		case "return":
			pass.Reportf(ev.pos, "returning a zero-copy span that aliases the record buffer; copy it (append([]byte(nil), v...)) first")
		case "send":
			pass.Reportf(ev.pos, "sending a zero-copy span on a channel; the buffer is invalid after the record ends — copy it first")
		case "store-field":
			pass.Reportf(ev.pos, "storing a zero-copy span outside the callback; the buffer is invalid after the record ends — copy it first")
		case "store-var":
			pass.Reportf(ev.pos, "storing a zero-copy span in variable %q declared outside the callback; copy it first", ev.name)
		case "callee-retains":
			pass.Reportf(ev.pos, "passing a zero-copy span to %s, which retains it beyond the call; copy it first", ev.name)
		}
	}
}

// collectEvents is the core walker: propagate span aliases into locals,
// then record every way one escapes.
func collectEvents(pass *analysis.Pass, body *ast.BlockStmt, isRoot func(ast.Expr) bool, pruneLits bool) []event {
	local := make(map[types.Object]bool)

	// inspect walks body, optionally stopping at nested literals.
	inspect := func(fn func(ast.Node) bool) {
		ast.Inspect(body, func(n ast.Node) bool {
			if _, ok := n.(*ast.FuncLit); ok && pruneLits {
				return false
			}
			return fn(n)
		})
	}

	// isAlias extends the root predicate with local variables holding a
	// span, slices thereof, and calls summarized as returning their
	// span argument.
	var isAlias func(e ast.Expr) bool
	isAlias = func(e ast.Expr) bool {
		e = analysis.Unparen(e)
		if isRoot(e) {
			return true
		}
		switch e := e.(type) {
		case *ast.Ident:
			obj := pass.Info.Uses[e]
			if obj == nil {
				obj = pass.Info.Defs[e]
			}
			return obj != nil && local[obj]
		case *ast.SliceExpr:
			return isAlias(e.X)
		case *ast.CallExpr:
			// passthrough(span): the result aliases the argument when the
			// callee's summary says that parameter flows to a result.
			var fact EscapeFact
			if callee := calleeFunc(pass, e); callee != nil && pass.ImportObjectFact(callee, &fact) {
				for i, arg := range e.Args {
					if i < len(fact.Returns) && fact.Returns[i] && isAlias(arg) {
						return true
					}
				}
			}
		}
		return false
	}

	// carriesAlias extends isAlias over value shapes that keep the span
	// reachable: composite literals holding one, &lit, and element
	// appends (append(list, span) — copyless). A spread append
	// (append(buf, span...)) copies the bytes and is clean.
	var carriesAlias func(e ast.Expr) bool
	carriesAlias = func(e ast.Expr) bool {
		e = analysis.Unparen(e)
		if isAlias(e) {
			return true
		}
		switch e := e.(type) {
		case *ast.UnaryExpr:
			return carriesAlias(e.X)
		case *ast.CompositeLit:
			for _, elt := range e.Elts {
				v := elt
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					v = kv.Value
				}
				if carriesAlias(v) {
					return true
				}
			}
		case *ast.CallExpr:
			if id, ok := analysis.Unparen(e.Fun).(*ast.Ident); ok && id.Name == "append" && e.Ellipsis == token.NoPos {
				for _, arg := range e.Args[1:] {
					if carriesAlias(arg) {
						return true
					}
				}
			}
		}
		return false
	}

	// Pass 1: propagate spans into local variables (v := m.Value, v :=
	// passthrough(m.Value)), and through two-value unpacking of
	// span-producing calls (raw, err := v.Raw() marks raw).
	for changed := true; changed; {
		changed = false
		inspect(func(n ast.Node) bool {
			a, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			if len(a.Rhs) == 1 && len(a.Lhs) > 1 {
				if !isRoot(a.Rhs[0]) {
					return true
				}
				for _, lhs := range a.Lhs {
					id, ok := analysis.Unparen(lhs).(*ast.Ident)
					if !ok {
						continue
					}
					obj := pass.Info.Defs[id]
					if obj == nil {
						obj = pass.Info.Uses[id]
					}
					if obj == nil || local[obj] || !isLocalTo(obj, body) || !isByteSlice(obj.Type()) {
						continue
					}
					local[obj] = true
					changed = true
				}
				return true
			}
			if len(a.Lhs) != len(a.Rhs) {
				return true
			}
			for i := range a.Lhs {
				id, ok := analysis.Unparen(a.Lhs[i]).(*ast.Ident)
				if !ok {
					continue
				}
				obj := pass.Info.Defs[id]
				if obj == nil {
					obj = pass.Info.Uses[id]
				}
				if obj == nil || local[obj] || !isLocalTo(obj, body) {
					continue
				}
				if isAlias(a.Rhs[i]) {
					local[obj] = true
					changed = true
				}
			}
			return true
		})
	}

	// Pass 2: record retention.
	var events []event
	inspect(func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				if carriesAlias(res) {
					events = append(events, event{kind: "return", pos: res.Pos()})
				}
			}
		case *ast.SendStmt:
			if carriesAlias(n.Value) {
				events = append(events, event{kind: "send", pos: n.Value.Pos()})
			}
		case *ast.CallExpr:
			// A summarized callee that retains its argument escapes the
			// span as surely as a field store. Unknown callees stay
			// delivery.
			var fact EscapeFact
			if callee := calleeFunc(pass, n); callee != nil && pass.ImportObjectFact(callee, &fact) {
				for i, arg := range n.Args {
					if i < len(fact.Retains) && fact.Retains[i] && carriesAlias(arg) {
						events = append(events, event{kind: "callee-retains", pos: arg.Pos(), name: analysis.CalleeName(n)})
					}
				}
			}
		case *ast.AssignStmt:
			if len(n.Rhs) == 1 && len(n.Lhs) > 1 && isRoot(n.Rhs[0]) {
				// Two-value unpacking of a span call straight into storage
				// (c.last, err = v.Raw()).
				for _, lhs := range n.Lhs {
					switch l := analysis.Unparen(lhs).(type) {
					case *ast.SelectorExpr, *ast.IndexExpr:
						if isByteSlice(pass.TypeOf(l)) {
							events = append(events, event{kind: "store-field", pos: n.Rhs[0].Pos()})
						}
					case *ast.Ident:
						obj := pass.Info.Defs[l]
						if obj == nil {
							obj = pass.Info.Uses[l]
						}
						if obj != nil && !isLocalTo(obj, body) && isByteSlice(obj.Type()) {
							events = append(events, event{kind: "store-var", pos: n.Rhs[0].Pos(), name: l.Name})
						}
					}
				}
				return true
			}
			if len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i := range n.Lhs {
				if !carriesAlias(n.Rhs[i]) {
					continue
				}
				lhs := analysis.Unparen(n.Lhs[i])
				switch l := lhs.(type) {
				case *ast.SelectorExpr, *ast.IndexExpr:
					events = append(events, event{kind: "store-field", pos: n.Rhs[i].Pos()})
				case *ast.Ident:
					obj := pass.Info.Defs[l]
					if obj == nil {
						obj = pass.Info.Uses[l]
					}
					if obj != nil && !isLocalTo(obj, body) {
						events = append(events, event{kind: "store-var", pos: n.Rhs[i].Pos(), name: l.Name})
					}
				}
			}
		}
		return true
	})
	return events
}

// matchParams returns the objects of parameters whose type is a Match
// shape: a named struct (or one embedding it) with a Value []byte
// field. These are the match callbacks, such as the func(Match) a
// FuncSink wraps.
func matchParams(pass *analysis.Pass, ft *ast.FuncType) []types.Object {
	if ft.Params == nil {
		return nil
	}
	var out []types.Object
	for _, field := range ft.Params.List {
		for _, name := range field.Names {
			obj := pass.Info.Defs[name]
			if obj == nil {
				continue
			}
			if hasByteField(obj.Type(), "Value") {
				out = append(out, obj)
			}
		}
	}
	return out
}

// spanMethod recognizes a Sink.Span implementation: a method named
// Span with signature (int, int) error whose receiver struct binds the
// record buffer in one or more []byte fields.
func spanMethod(pass *analysis.Pass, fn *ast.FuncDecl) (types.Object, map[string]bool) {
	if fn.Recv == nil || fn.Name.Name != "Span" || len(fn.Recv.List) != 1 || len(fn.Recv.List[0].Names) != 1 {
		return nil, nil
	}
	sig, ok := pass.TypeOf(fn.Name).(*types.Signature)
	if !ok || sig.Params().Len() != 2 || sig.Results().Len() != 1 {
		return nil, nil
	}
	for i := 0; i < 2; i++ {
		if b, ok := sig.Params().At(i).Type().(*types.Basic); !ok || b.Kind() != types.Int {
			return nil, nil
		}
	}
	recv := pass.Info.Defs[fn.Recv.List[0].Names[0]]
	if recv == nil {
		return nil, nil
	}
	st, ok := analysis.Deref(types.Unalias(recv.Type())).Underlying().(*types.Struct)
	if !ok {
		return nil, nil
	}
	fields := make(map[string]bool)
	for i := 0; i < st.NumFields(); i++ {
		if isByteSlice(st.Field(i).Type()) {
			fields[st.Field(i).Name()] = true
		}
	}
	if len(fields) == 0 {
		return nil, nil
	}
	return recv, fields
}

func isByteSlice(t types.Type) bool {
	if t == nil {
		return false
	}
	s, ok := types.Unalias(t).Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Byte
}

func hasByteField(t types.Type, name string) bool {
	t = analysis.Deref(types.Unalias(t))
	if _, ok := t.Underlying().(*types.Struct); !ok {
		return false
	}
	obj, _, _ := types.LookupFieldOrMethod(t, true, nil, name)
	v, ok := obj.(*types.Var)
	return ok && v.IsField() && isByteSlice(v.Type())
}

func rootObj(pass *analysis.Pass, e ast.Expr) types.Object {
	r := analysis.RootIdent(e)
	if r == nil {
		return nil
	}
	if obj := pass.Info.Uses[r]; obj != nil {
		return obj
	}
	return pass.Info.Defs[r]
}

// isMatchValue reports whether e reads the Value span of one of the
// callback's Match parameters (m.Value, m.Match.Value, m.Value[i:j]).
func isMatchValue(pass *analysis.Pass, e ast.Expr, params []types.Object) bool {
	e = analysis.Unparen(e)
	if s, ok := e.(*ast.SliceExpr); ok {
		return isMatchValue(pass, s.X, params)
	}
	sel, ok := e.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Value" {
		return false
	}
	obj := rootObj(pass, sel)
	for _, p := range params {
		if obj == p {
			return true
		}
	}
	return false
}

// isParamSpan reports whether e denotes the given []byte parameter or
// a slice of it — the root predicate for escape summaries.
func isParamSpan(pass *analysis.Pass, e ast.Expr, param types.Object) bool {
	e = analysis.Unparen(e)
	if s, ok := e.(*ast.SliceExpr); ok {
		return isParamSpan(pass, s.X, param)
	}
	id, ok := e.(*ast.Ident)
	if !ok {
		return false
	}
	obj := pass.Info.Uses[id]
	if obj == nil {
		obj = pass.Info.Defs[id]
	}
	return obj == param
}

// isRawSpanCall reports whether e is a method call shaped
// Raw() ([]byte, error) — the on-demand API's zero-copy span accessor
// (jsonski.Value.Raw and anything mimicking it).
func isRawSpanCall(pass *analysis.Pass, e ast.Expr) bool {
	call, ok := analysis.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := analysis.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Raw" {
		return false
	}
	fn, ok := pass.Info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil || sig.Params().Len() != 0 || sig.Results().Len() != 2 {
		return false
	}
	return isByteSlice(sig.Results().At(0).Type()) &&
		types.Identical(sig.Results().At(1).Type(), types.Universe.Lookup("error").Type())
}

// isRecvFieldSpan reports whether e aliases the record buffer bound in
// the Span receiver (s.data, s.data[start:end]).
func isRecvFieldSpan(pass *analysis.Pass, e ast.Expr, recv types.Object, fields map[string]bool) bool {
	e = analysis.Unparen(e)
	if s, ok := e.(*ast.SliceExpr); ok {
		return isRecvFieldSpan(pass, s.X, recv, fields)
	}
	sel, ok := e.(*ast.SelectorExpr)
	if !ok || !fields[sel.Sel.Name] {
		return false
	}
	return rootObj(pass, sel) == recv
}

func calleeFunc(pass *analysis.Pass, call *ast.CallExpr) *types.Func {
	switch fun := analysis.Unparen(call.Fun).(type) {
	case *ast.Ident:
		f, _ := pass.Info.Uses[fun].(*types.Func)
		return f
	case *ast.SelectorExpr:
		f, _ := pass.Info.Uses[fun.Sel].(*types.Func)
		return f
	}
	return nil
}

// isLocalTo reports whether obj is declared inside body.
func isLocalTo(obj types.Object, body *ast.BlockStmt) bool {
	return obj.Pos() >= body.Pos() && obj.Pos() <= body.End()
}
