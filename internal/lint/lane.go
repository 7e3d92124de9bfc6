package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"tspusim/internal/lint/analysis"
)

// Lanecheck turns "lanes are disjoint by construction" from a doc comment
// into a checked property. Lane isolation matters for two reasons: the batch
// engine (internal/engine) runs each batch lane-major, which is
// byte-equivalent to sequential delivery only if no lane touches another
// lane's state, and the tspu tests drive Device.HandleSharded one goroutine
// per lane. Both rest on every lane touching only its own shard of
// conntrack/fragment/wheel state. The claim is declared with two markers and
// verified over the lane-reachable call graph:
//
//   - //tspuvet:lane on a function declares a lane entry point
//     (Device.HandleSharded). It must have an integer lane parameter (named
//     lane, l, laneID, shard, or shardID).
//   - //tspuvet:laneowned on a type declaration declares per-lane state
//     (devLane, ctShard, flowEntry, ...): a value of this type is
//     owned by exactly one lane, so writes through it are safe.
//
// In every function reachable from a lane root through same-package calls:
//
//   - Indexing a shared container whose elements are lane-owned
//     (d.lanes[...], d.ct.shards[...]) must use the lane parameter (or an
//     alias/conversion of it, or a lane/shard field of lane-owned state).
//     Any other index — a sibling shard, a literal, a loop variable — is a
//     cross-lane access, read or write.
//   - Writes rooted at shared state (pointers to non-lane-owned named
//     structs, package variables, caller-visible slices) are diagnostics;
//     sync/atomic calls are naturally exempt because they are calls, not
//     assignments. *packet.Packet writes are exempt: the packet itself is
//     owned by whoever holds it (retaincheck governs that contract).
//   - Drawing from a shared *sim.Rand is a diagnostic: the entropy stream's
//     order would depend on lane interleaving.
//
// Packages with no markers are untouched. Dynamic calls (interface methods,
// func values) are boundaries, as everywhere in tspu-vet. Call results are
// treated as lane-local (the producer owns what it returns).
//
// Across packages the markers travel as facts: LaneOwnedFact on every marked
// type, so lane code in one package recognizes shard state declared in
// another, and LaneEntryFact on every lane root, so lane-reachable code that
// statically calls an imported entry point must hand it this lane's own index
// — anything else is a cross-lane handoff.
var Lanecheck = &analysis.Analyzer{
	Name: "lanecheck",
	Doc: "code reachable from a //tspuvet:lane entry point may touch " +
		"//tspuvet:laneowned sharded state only through the lane's own shard, " +
		"indexed by the lane parameter; writes to shared structs and shared " +
		"RNG draws are diagnostics; markers cross package seams as facts",
	Run:       runLanecheck,
	FactTypes: []analysis.Fact{(*LaneOwnedFact)(nil), (*LaneEntryFact)(nil)},
}

// LaneOwnedFact marks a type declared //tspuvet:laneowned: a value of it is
// owned by exactly one lane, so importing packages' lane code treats it as
// shard state rather than shared memory.
type LaneOwnedFact struct{}

// AFact marks LaneOwnedFact as a serializable analysis fact.
func (*LaneOwnedFact) AFact() {}

// LaneEntryFact marks a //tspuvet:lane entry point. LaneParam is the
// flattened index of its integer lane parameter, or -1 when the lane
// identity is a lane-owned receiver instead.
type LaneEntryFact struct {
	LaneParam int `json:"laneParam"`
}

// AFact marks LaneEntryFact as a serializable analysis fact.
func (*LaneEntryFact) AFact() {}

const (
	laneVerb      = "lane"
	laneownedVerb = "laneowned"
)

// laneParamNames are accepted names for the lane-index parameter.
var laneParamNames = map[string]bool{
	"lane": true, "l": true, "laneID": true, "shard": true, "shardID": true,
}

func runLanecheck(pass *analysis.Pass) (any, error) {
	c := &laneChecker{pass: pass, owned: map[*types.TypeName]bool{}}
	nodes, order := c.collect()
	if nodes == nil {
		return nil, nil
	}
	if pass.FactsEnabled() {
		for tn := range c.owned {
			pass.ExportObjectFact(tn, &LaneOwnedFact{})
		}
		for _, n := range order {
			if n.root {
				pass.ExportObjectFact(n.fn, &LaneEntryFact{LaneParam: laneParamIndex(pass.TypesInfo, n.decl)})
			}
		}
	}

	// Call-graph edges and BFS from the lane roots, mirroring hotpath.
	for _, n := range order {
		seen := map[*funcNode]bool{}
		ast.Inspect(n.decl.Body, func(x ast.Node) bool {
			call, ok := x.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := calleeFunc(pass.TypesInfo, call)
			if callee == nil {
				return true
			}
			target, ok := nodes[callee]
			if !ok || seen[target] {
				return true
			}
			seen[target] = true
			n.edges = append(n.edges, target)
			return true
		})
	}
	var queue []*funcNode
	for _, n := range order {
		if n.root {
			n.reached = true
			queue = append(queue, n)
		}
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, callee := range n.edges {
			if callee.reached {
				continue
			}
			callee.reached = true
			callee.parent = n
			queue = append(queue, callee)
		}
	}
	for _, n := range order {
		if n.reached {
			c.checkFunc(n)
		}
	}
	return nil, nil
}

type laneChecker struct {
	pass  *analysis.Pass
	owned map[*types.TypeName]bool
}

// isOwned reports whether a type is lane-owned: marked in this package, or
// carrying an imported LaneOwnedFact from the package that declared it.
func (c *laneChecker) isOwned(tn *types.TypeName) bool {
	if tn == nil {
		return false
	}
	if c.owned[tn] {
		return true
	}
	if tn.Pkg() != nil && tn.Pkg() != c.pass.Pkg {
		var lf LaneOwnedFact
		return c.pass.ImportObjectFact(tn, &lf)
	}
	return false
}

// collect gathers lane/laneowned markers (validating placement) and builds
// the function-node table. Returns nil when the package carries no markers.
func (c *laneChecker) collect() (map[*types.Func]*funcNode, []*funcNode) {
	nodes := map[*types.Func]*funcNode{}
	var order []*funcNode
	consumed := map[*ast.Comment]bool{}
	anyMark := false

	// Pass 1: type markers, so function-marker validation can ask whether a
	// receiver is lane-owned regardless of declaration order.
	for _, f := range c.pass.Files {
		for _, decl := range f.Decls {
			d, ok := decl.(*ast.GenDecl)
			if !ok || d.Tok != token.TYPE {
				continue
			}
			markSpecs := func(doc *ast.CommentGroup, specs []ast.Spec) {
				if doc == nil {
					return
				}
				for _, cm := range doc.List {
					verb, ok := laneMarkerOf(cm)
					if !ok {
						continue
					}
					consumed[cm] = true
					anyMark = true
					if verb == laneVerb {
						c.pass.Reportf(cm.Pos(), "//tspuvet:lane belongs on a function declaration, not on a type")
						continue
					}
					for _, spec := range specs {
						ts, ok := spec.(*ast.TypeSpec)
						if !ok {
							continue
						}
						if tn, ok := c.pass.TypesInfo.Defs[ts.Name].(*types.TypeName); ok {
							c.owned[tn] = true
						}
					}
				}
			}
			markSpecs(d.Doc, d.Specs)
			for _, spec := range d.Specs {
				if ts, ok := spec.(*ast.TypeSpec); ok {
					markSpecs(ts.Doc, []ast.Spec{spec})
				}
			}
		}
	}

	// Pass 2: function markers and the node table.
	for _, f := range c.pass.Files {
		for _, decl := range f.Decls {
			d, ok := decl.(*ast.FuncDecl)
			if !ok || d.Body == nil {
				continue
			}
			fn, ok := c.pass.TypesInfo.Defs[d.Name].(*types.Func)
			if !ok {
				continue
			}
			n := &funcNode{fn: fn, decl: d, name: funcDisplayName(d)}
			if d.Doc != nil {
				for _, cm := range d.Doc.List {
					verb, ok := laneMarkerOf(cm)
					if !ok {
						continue
					}
					consumed[cm] = true
					anyMark = true
					switch verb {
					case laneVerb:
						n.root = true
						// The lane identity is either an integer lane parameter
						// or a lane-owned receiver (a per-lane pipe or shard
						// whose methods run on that lane).
						if laneParamObj(c.pass.TypesInfo, d) == nil && !c.laneOwnedRecv(d) {
							c.pass.Reportf(cm.Pos(), "//tspuvet:lane on %s: a lane entry point needs an "+
								"integer lane parameter named lane, l, laneID, shard, or shardID, "+
								"or a //tspuvet:laneowned receiver", n.name)
						}
					case laneownedVerb:
						c.pass.Reportf(cm.Pos(), "//tspuvet:laneowned belongs on a type declaration, not on function %s", n.name)
					}
				}
			}
			nodes[fn] = n
			order = append(order, n)
		}
	}

	// A marker attached to nothing silently enforces nothing.
	for _, f := range c.pass.Files {
		for _, cg := range f.Comments {
			for _, cm := range cg.List {
				verb, ok := laneMarkerOf(cm)
				if !ok || consumed[cm] {
					continue
				}
				anyMark = true
				c.pass.Reportf(cm.Pos(), "//tspuvet:%s must be the doc comment of a %s declaration",
					verb, map[string]string{laneVerb: "function", laneownedVerb: "type"}[verb])
			}
		}
	}
	if !anyMark {
		return nil, nil
	}
	return nodes, order
}

// laneOwnedRecv reports whether fd is a method on a lane-owned type.
func (c *laneChecker) laneOwnedRecv(fd *ast.FuncDecl) bool {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return false
	}
	t := c.pass.TypesInfo.TypeOf(fd.Recv.List[0].Type)
	if t == nil {
		return false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && c.isOwned(named.Obj())
}

// laneMarkerOf parses a //tspuvet:lane or //tspuvet:laneowned comment.
func laneMarkerOf(c *ast.Comment) (string, bool) {
	if !strings.HasPrefix(c.Text, directivePrefix) {
		return "", false
	}
	body := strings.TrimPrefix(c.Text, directivePrefix)
	if i := strings.Index(body, "//"); i >= 0 {
		body = strings.TrimSpace(body[:i])
	}
	verb, _, _ := strings.Cut(body, " ")
	if verb != laneVerb && verb != laneownedVerb {
		return "", false
	}
	return verb, true
}

// laneParamIndex returns the flattened parameter index of the declared
// lane-index parameter (receiver excluded, matching call-argument positions),
// or -1 when the function has none.
func laneParamIndex(info *types.Info, fd *ast.FuncDecl) int {
	if fd.Type.Params == nil {
		return -1
	}
	i := 0
	for _, field := range fd.Type.Params.List {
		if len(field.Names) == 0 {
			i++
			continue
		}
		for _, name := range field.Names {
			if laneParamNames[name.Name] {
				if obj := info.Defs[name]; obj != nil {
					if b, ok := obj.Type().Underlying().(*types.Basic); ok && b.Info()&types.IsInteger != 0 {
						return i
					}
				}
			}
			i++
		}
	}
	return -1
}

// laneParamObj finds the declared lane-index parameter of a function.
func laneParamObj(info *types.Info, fd *ast.FuncDecl) types.Object {
	if fd.Type.Params == nil {
		return nil
	}
	for _, field := range fd.Type.Params.List {
		for _, name := range field.Names {
			if !laneParamNames[name.Name] {
				continue
			}
			obj := info.Defs[name]
			if obj == nil {
				continue
			}
			if b, ok := obj.Type().Underlying().(*types.Basic); ok && b.Info()&types.IsInteger != 0 {
				return obj
			}
		}
	}
	return nil
}

// laneClass classifies what memory an expression's chain roots in.
type laneClass int

const (
	classLocal     laneClass = iota // frame-local value, or exempt (packets)
	classLaneLocal                  // this lane's own shard state
	classShared                     // state visible to other lanes
)

// laneWalker checks one lane-reachable function.
type laneWalker struct {
	c *laneChecker
	n *funcNode
	// params holds the function's parameter and receiver objects.
	params map[types.Object]bool
	// laneObj is the lane-index parameter, if any.
	laneObj types.Object
	// laneAliases are locals bound to the lane index (x := l, x := int(lane)).
	laneAliases map[types.Object]bool
	// aliases classifies pointer locals by what their initializer roots in.
	aliases map[types.Object]laneClass
	// badIndex records cross-lane IndexExpr nodes already reported, so the
	// shared-write rule does not double-report the same access.
	badIndex map[ast.Node]bool
}

func (c *laneChecker) checkFunc(n *funcNode) {
	w := &laneWalker{
		c:           c,
		n:           n,
		params:      map[types.Object]bool{},
		laneAliases: map[types.Object]bool{},
		aliases:     map[types.Object]laneClass{},
		badIndex:    map[ast.Node]bool{},
	}
	info := c.pass.TypesInfo
	collect := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, field := range fl.List {
			for _, name := range field.Names {
				if obj := info.Defs[name]; obj != nil {
					w.params[obj] = true
				}
			}
		}
	}
	collect(n.decl.Recv)
	collect(n.decl.Type.Params)
	w.laneObj = laneParamObj(info, n.decl)
	w.prepass()
	w.walk()
}

// prepass classifies locals by their first := initializer, in source order
// (aliases of aliases resolve because definitions precede uses).
func (w *laneWalker) prepass() {
	info := w.c.pass.TypesInfo
	ast.Inspect(w.n.decl.Body, func(x ast.Node) bool {
		as, ok := x.(*ast.AssignStmt)
		if !ok || as.Tok != token.DEFINE || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, lhs := range as.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok {
				continue
			}
			obj := info.Defs[id]
			if obj == nil {
				continue
			}
			if w.isLaneIndex(as.Rhs[i]) {
				w.laneAliases[obj] = true
				continue
			}
			if _, done := w.aliases[obj]; !done {
				w.aliases[obj] = w.class(as.Rhs[i])
			}
		}
		return true
	})
}

// class resolves the memory class an expression's access chain roots in.
// It never reports; the walk does.
func (w *laneWalker) class(e ast.Expr) laneClass {
	info := w.c.pass.TypesInfo
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if w.c.pass.PkgNameOf(e) != nil {
			return classShared // package-qualified access
		}
		obj := info.ObjectOf(e)
		if obj == nil {
			return classLocal
		}
		if obj.Parent() == w.c.pass.Pkg.Scope() || (obj.Pkg() != nil && obj.Pkg() != w.c.pass.Pkg) {
			return classShared // package-level variable
		}
		if w.params[obj] {
			return w.paramClass(obj)
		}
		if cls, ok := w.aliases[obj]; ok {
			return cls
		}
		return classLocal
	case *ast.SelectorExpr:
		base := w.class(e.X)
		if base == classLaneLocal {
			// A pointer field out of lane-local state into a non-lane-owned
			// named struct (a pipe's back pointer to its engine) re-enters
			// shared territory.
			if t := info.TypeOf(e); t != nil {
				if p, ok := t.Underlying().(*types.Pointer); ok {
					if named, ok := p.Elem().(*types.Named); ok && !w.c.isOwned(named.Obj()) && !isPacketNamed(named) {
						if _, isStruct := named.Underlying().(*types.Struct); isStruct {
							return classShared
						}
					}
				}
			}
		}
		return base
	case *ast.IndexExpr:
		if w.elemLaneOwned(info.TypeOf(e.X)) {
			base := w.class(e.X)
			if base == classLaneLocal || base == classLocal {
				return classLaneLocal
			}
			if w.isLaneIndex(e.Index) {
				return classLaneLocal
			}
			return classShared
		}
		return w.class(e.X)
	case *ast.StarExpr:
		return w.class(e.X)
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return w.class(e.X)
		}
		return classLocal
	case *ast.CallExpr:
		return classLaneLocal // the producer owns its result
	}
	return classLocal
}

// paramClass classifies a parameter or receiver object.
func (w *laneWalker) paramClass(obj types.Object) laneClass {
	t := obj.Type()
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		if w.c.isOwned(named.Obj()) {
			return classLaneLocal
		}
		if isPacketNamed(named) {
			return classLocal // the packet is owned by its current holder
		}
		if _, isStruct := named.Underlying().(*types.Struct); isStruct {
			if _, isPtr := obj.Type().Underlying().(*types.Pointer); isPtr {
				return classShared
			}
		}
	}
	switch t.Underlying().(type) {
	case *types.Slice, *types.Map:
		if w.elemLaneOwned(obj.Type()) {
			// A bare lane-owned slice parameter is the whole sharded
			// container; indexing it still needs the lane parameter.
			return classShared
		}
		return classShared // aliases caller-visible memory
	}
	return classLocal
}

// elemLaneOwned reports whether unwrapping slices/arrays of t reaches a
// lane-owned named type.
func (w *laneWalker) elemLaneOwned(t types.Type) bool {
	for t != nil {
		if named, ok := t.(*types.Named); ok {
			if w.c.isOwned(named.Obj()) {
				return true
			}
		}
		switch u := t.Underlying().(type) {
		case *types.Slice:
			t = u.Elem()
		case *types.Array:
			t = u.Elem()
		case *types.Pointer:
			t = u.Elem()
		default:
			return false
		}
	}
	return false
}

// isLaneIndex reports whether e is the lane index: the lane parameter, an
// alias of it, an integer conversion of either, or a lane/shard-named field
// of lane-owned state.
func (w *laneWalker) isLaneIndex(e ast.Expr) bool {
	info := w.c.pass.TypesInfo
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj := info.ObjectOf(e)
		if obj == nil {
			return false
		}
		return obj == w.laneObj || w.laneAliases[obj]
	case *ast.CallExpr:
		if tv, ok := info.Types[e.Fun]; ok && tv.IsType() && len(e.Args) == 1 {
			return w.isLaneIndex(e.Args[0])
		}
		return false
	case *ast.SelectorExpr:
		return laneParamNames[e.Sel.Name] && w.class(e.X) == classLaneLocal
	}
	return false
}

// walk scans the body for cross-lane indexing, shared writes, and shared RNG
// draws.
func (w *laneWalker) walk() {
	info := w.c.pass.TypesInfo
	// Pass 1: cross-lane indexing, reads and writes alike.
	ast.Inspect(w.n.decl.Body, func(x ast.Node) bool {
		ix, ok := x.(*ast.IndexExpr)
		if !ok {
			return true
		}
		if !w.elemLaneOwned(info.TypeOf(ix.X)) {
			return true
		}
		base := w.class(ix.X)
		if base == classLaneLocal || base == classLocal {
			return true
		}
		if w.isLaneIndex(ix.Index) {
			return true
		}
		w.badIndex[ix] = true
		w.reportf(ix.Pos(), "cross-lane access: %s is indexed with %s, not the lane parameter — "+
			"a lane may touch only its own shard", exprString(ix.X), exprString(ix.Index))
		return true
	})
	// Pass 2: writes and RNG draws.
	ast.Inspect(w.n.decl.Body, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				w.checkWrite(lhs, x.Pos())
			}
		case *ast.IncDecStmt:
			w.checkWrite(x.X, x.Pos())
		case *ast.SendStmt:
			if w.class(x.Chan) == classShared {
				w.reportf(x.Pos(), "send on a shared channel from lane-reachable code synchronizes across lanes")
			}
		case *ast.CallExpr:
			if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok && id.Name == "delete" {
				if _, isBuiltin := info.ObjectOf(id).(*types.Builtin); isBuiltin && len(x.Args) > 0 {
					w.checkWrite(x.Args[0], x.Pos())
				}
			}
			w.checkRand(x)
			w.checkLaneHandoff(x)
		}
		return true
	})
}

// checkLaneHandoff flags a static call from lane-reachable code to an
// imported lane entry point whose lane argument is not this lane's index:
// the callee selects a shard with it, so anything else crosses lanes.
func (w *laneWalker) checkLaneHandoff(call *ast.CallExpr) {
	fn := calleeFunc(w.c.pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg() == w.c.pass.Pkg {
		return
	}
	var ef LaneEntryFact
	if !w.c.pass.ImportObjectFact(fn, &ef) || ef.LaneParam < 0 || ef.LaneParam >= len(call.Args) {
		return
	}
	arg := call.Args[ef.LaneParam]
	if w.isLaneIndex(arg) {
		return
	}
	w.reportf(call.Pos(), "cross-lane handoff: %s.%s is a lane entry point but %s is not this lane's index",
		fn.Pkg().Name(), fn.Name(), exprString(arg))
}

// checkWrite flags a write whose destination chain roots in shared state.
func (w *laneWalker) checkWrite(lhs ast.Expr, pos token.Pos) {
	if _, ok := ast.Unparen(lhs).(*ast.Ident); ok {
		return // rebinding a local is a frame write
	}
	hasBad := false
	ast.Inspect(lhs, func(x ast.Node) bool {
		if w.badIndex[x] {
			hasBad = true
		}
		return true
	})
	if hasBad {
		return // the cross-lane index report already covers this access
	}
	if w.class(lhs) == classShared {
		w.reportf(pos, "lane-reachable code writes shared state through %s; route the write through "+
			"the lane's own shard or use sync/atomic", exprString(lhs))
	}
}

// checkRand flags method calls on a shared *sim.Rand: consuming a shared
// entropy stream from lane code makes the draw order depend on interleaving.
func (w *laneWalker) checkRand(call *ast.CallExpr) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return
	}
	t := w.c.pass.TypesInfo.TypeOf(sel.X)
	if t == nil {
		return
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj() == nil || named.Obj().Name() != "Rand" ||
		named.Obj().Pkg() == nil || named.Obj().Pkg().Name() != "sim" {
		return
	}
	if w.class(sel.X) == classShared {
		w.reportf(call.Pos(), "lane-reachable code draws from a shared sim.Rand: the stream order would "+
			"depend on lane interleaving; derive per-flow randomness instead")
	}
}

func (w *laneWalker) reportf(pos token.Pos, format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	w.c.pass.Report(analysis.Diagnostic{Pos: pos, Message: fmt.Sprintf(
		"%s (%s); fix it or justify with //tspuvet:allow lanecheck: <reason>", msg, laneChainLabel(w.n))})
}

// laneChainLabel mirrors chainLabel with lane wording.
func laneChainLabel(n *funcNode) string {
	if n.parent == nil {
		return fmt.Sprintf("lane entry point %s", n.name)
	}
	var names []string
	for m := n; m != nil; m = m.parent {
		names = append(names, m.name)
	}
	for i, j := 0, len(names)-1; i < j; i, j = i+1, j-1 {
		names[i], names[j] = names[j], names[i]
	}
	return "reached via " + strings.Join(names, " → ")
}

// isPacketNamed reports whether named is packet.Packet.
func isPacketNamed(named *types.Named) bool {
	obj := named.Obj()
	return obj != nil && obj.Name() == "Packet" && obj.Pkg() != nil && obj.Pkg().Name() == "packet"
}
