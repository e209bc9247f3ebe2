// Package releaseonce pins the PR 7 review-bug class: a resource acquired
// in a function — a pooled workspace from Acquire, a sync.Mutex/RWMutex
// lock, a locally-made channel that the function closes — must be released
// exactly once on EVERY exit path. The PR 7 streaming handler had both
// failure modes at once: an early Release on the error path ran again via
// the deferred Release (double release poisons the pool's free list), and
// the disconnect path returned without releasing at all (workspace leak).
// Tests caught it in review; this analyzer catches it in `make check`.
//
// The check is a forward dataflow over the framework CFG. Each tracked
// resource carries a small state machine (not-acquired / live / released
// for values and channels, unheld / held for locks) plus a count of
// deferred releases registered on the path. At every reachable exit edge:
//
//   - return / fall-through: a live resource with no deferred release is a
//     leak; a released resource with a pending deferred release is a double
//     release; a held lock with no deferred unlock is a leak.
//   - panic exits: only double-release is reported (deferred calls still
//     run there); leak-on-panic is deliberately out of scope to bound noise.
//   - os.Exit / log.Fatal / runtime.Goexit exits: skipped entirely.
//
// Soundness boundaries (by construction, to keep the repo annotation-light):
// a resource that escapes — returned, stored into a struct/map/slice,
// sent on a channel, captured by a non-deferred closure, or rebound — is
// dropped from tracking; passing a workspace as an ordinary call argument
// is a use, not an escape (the deferred-release pattern keeps ownership
// with the caller). Function-valued releases (the `release func()` returned
// by acquire/similarity) are out of scope: the closure is the owner there.
// Paths where the facts disagree (a lock held on one arm of a branch only)
// join to "unknown" and are not reported — annotate only what the analyzer
// actually flags, with //lint:releaseonce <reason>.
package releaseonce

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"

	"ppscan/internal/lint/framework"
)

// Analyzer is the releaseonce analyzer.
var Analyzer = &framework.Analyzer{
	Name:      "releaseonce",
	Directive: "releaseonce",
	Doc: "verifies that pooled workspaces (Acquire/Release), mutex locks and locally-closed " +
		"channels are released exactly once on every exit path — the PR 7 double-release / " +
		"leak-on-disconnect bug class; annotate //lint:releaseonce <reason> where a path is " +
		"provably safe",
	Run: run,
}

func run(pass *framework.Pass) error {
	for _, file := range pass.Files {
		// Analyze every function body independently: declarations and
		// function literals. A literal's CFG tracks only resources the
		// literal itself acquires; resources captured from the enclosing
		// function are the enclosing analysis's problem.
		var bodies []*ast.BlockStmt
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					bodies = append(bodies, n.Body)
				}
			case *ast.FuncLit:
				bodies = append(bodies, n.Body)
			}
			return true
		})
		for _, body := range bodies {
			analyzeBody(pass, body)
		}
	}
	return nil
}

// --- resource model ---

type resKind int

const (
	kindLock  resKind = iota // sync.Mutex / sync.RWMutex (write side)
	kindRLock                // sync.RWMutex read side
	kindValue                // Acquire/Release pooled value
	kindChan                 // locally-made, locally-closed channel
)

type resource struct {
	key     string
	kind    resKind
	display string       // how diagnostics name the resource (s.mu, ws, done)
	obj     types.Object // for kindValue/kindChan: the local variable
}

// Per-resource dataflow fact.
type state uint8

const (
	stInit     state = iota // not acquired / not held on this path
	stLive                  // held / live / open
	stReleased              // released / unlocked-after-hold / closed
	stTop                   // paths disagree or tracking lost — no reports
)

type resFact struct {
	st     state
	defers uint8 // deferred releases registered on this path
}

// fact is the block-level dataflow fact: resource key → state. A missing
// key means stInit with zero defers.
type fact map[string]resFact

func (f fact) get(k string) resFact { return f[k] } // zero value = stInit/0

func cloneFact(f fact) fact {
	n := make(fact, len(f))
	for k, v := range f {
		n[k] = v
	}
	return n
}

func joinFact(a, b fact) fact {
	out := make(fact, len(a)+len(b))
	keys := map[string]bool{}
	for k := range a {
		keys[k] = true
	}
	for k := range b {
		keys[k] = true
	}
	for k := range keys {
		va, vb := a.get(k), b.get(k)
		if va == vb {
			out[k] = va
			continue
		}
		out[k] = resFact{st: stTop}
	}
	return out
}

func equalFact(a, b fact) bool {
	if len(normalize(a)) != len(normalize(b)) {
		return false
	}
	for k, v := range a {
		if b.get(k) != v {
			return false
		}
	}
	for k, v := range b {
		if a.get(k) != v {
			return false
		}
	}
	return true
}

// normalize drops explicit zero-value entries so length comparison works.
func normalize(f fact) fact {
	n := make(fact, len(f))
	for k, v := range f {
		if v != (resFact{}) {
			n[k] = v
		}
	}
	return n
}

// --- events ---

type evKind int

const (
	evAcquire evKind = iota // lock Lock / value Acquire / chan make
	evRelease               // lock Unlock / value Release / chan close
	evDefer                 // deferred release registered
	evMaybe                 // conditional release in a deferred literal: drop to top
)

type event struct {
	kind evKind
	res  string
	pos  token.Pos
}

// --- per-body analysis ---

type analysis struct {
	pass      *framework.Pass
	body      *ast.BlockStmt
	resources map[string]*resource
	// deferredLits holds the FuncLit nodes that are the callee of a defer
	// statement in this body (their captures do not escape resources).
	deferredLits map[*ast.FuncLit]bool

	reported map[string]bool
}

func analyzeBody(pass *framework.Pass, body *ast.BlockStmt) {
	a := &analysis{
		pass:         pass,
		body:         body,
		resources:    map[string]*resource{},
		deferredLits: map[*ast.FuncLit]bool{},
		reported:     map[string]bool{},
	}
	a.collectDeferredLits()
	a.collectResources()
	if len(a.resources) == 0 {
		return
	}
	a.dropEscaped()
	if len(a.resources) == 0 {
		return
	}

	cfg := framework.BuildCFG(body, pass.TypesInfo)
	events := map[*framework.Block][]event{}
	for _, b := range cfg.Blocks {
		events[b] = a.blockEvents(b)
	}
	transfer := func(b *framework.Block, in fact) fact {
		out := cloneFact(in)
		for _, ev := range events[b] {
			applyEvent(out, ev, nil)
		}
		return out
	}
	in, out := framework.Forward(cfg, fact{}, joinFact, transfer, equalFact)

	// Replay reachable blocks once with their fixpoint in-facts to emit
	// mid-path diagnostics (double release / unlock-while-unheld).
	for _, b := range cfg.Blocks {
		inF, ok := in[b]
		if !ok {
			continue
		}
		cur := cloneFact(inF)
		for _, ev := range events[b] {
			applyEvent(cur, ev, a)
		}
	}

	// Obligations at every reachable exit edge.
	for _, e := range cfg.ExitEdges() {
		if e.Kind == framework.TermFatal {
			continue // process/goroutine is gone; nothing to release
		}
		f, ok := out[e.From]
		if !ok {
			continue
		}
		for key, r := range a.resources {
			rf := f.get(key)
			if rf.st == stTop {
				continue
			}
			switch {
			case rf.st == stReleased && rf.defers > 0:
				a.reportf(e.Pos, "deferred %s of %s runs on a path where it is already %s",
					releaseVerb(r.kind), r.display, releasedWord(r.kind))
			case rf.st == stLive && rf.defers > 1:
				a.reportf(e.Pos, "%s is %s more than once via deferred calls on this exit path",
					r.display, releasedWord(r.kind))
			case rf.st == stLive && rf.defers == 0 && e.Kind != framework.TermPanic:
				// Leaks are not reported on panic exits: the recover
				// machinery owns those paths and flagging them would bury
				// the signal in annotations.
				a.reportf(e.Pos, "%s on this exit path", leakPhrase(r))
			}
		}
	}
}

func releaseVerb(k resKind) string {
	switch k {
	case kindLock, kindRLock:
		return "unlock"
	case kindChan:
		return "close"
	}
	return "release"
}

func releasedWord(k resKind) string {
	switch k {
	case kindLock, kindRLock:
		return "unlocked"
	case kindChan:
		return "closed"
	}
	return "released"
}

func leakPhrase(r *resource) string {
	switch r.kind {
	case kindLock:
		return r.display + " is still locked"
	case kindRLock:
		return r.display + " is still read-locked"
	case kindChan:
		return "channel " + r.display + " is not closed"
	}
	return r.display + " is not released"
}

// applyEvent mutates f in place; when rep is non-nil it also emits the
// mid-path diagnostics (the final replay pass).
func applyEvent(f fact, ev event, rep *analysis) {
	rf := f.get(ev.res)
	if rf.st == stTop && ev.kind != evAcquire {
		return
	}
	switch ev.kind {
	case evAcquire:
		if rf.st == stLive {
			// Re-acquire while held: aliasing between instances sharing a
			// field, or a genuine recursive lock. Both are beyond an
			// intra-procedural string identity — stop tracking this path.
			f[ev.res] = resFact{st: stTop}
			return
		}
		f[ev.res] = resFact{st: stLive, defers: rf.defers}
	case evRelease:
		switch rf.st {
		case stLive:
			f[ev.res] = resFact{st: stReleased, defers: rf.defers}
		case stReleased:
			if rep != nil {
				r := rep.resources[ev.res]
				rep.reportf(ev.pos, "%s %s twice on this path", r.display, releasedWord(r.kind))
			}
			f[ev.res] = resFact{st: stTop}
		case stInit:
			if rep != nil {
				r := rep.resources[ev.res]
				if r.kind == kindLock || r.kind == kindRLock {
					rep.reportf(ev.pos, "%s %s on a path where it is not held", r.display, releasedWord(r.kind))
				}
				// A value released before any acquire on this path can only
				// be reached via goto into scope; leave it to the exit check.
			}
			f[ev.res] = resFact{st: stTop}
		}
	case evDefer:
		if rf.defers < 250 {
			rf.defers++
		}
		f[ev.res] = rf
	case evMaybe:
		f[ev.res] = resFact{st: stTop}
	}
}

func (a *analysis) reportf(pos token.Pos, format string, args ...any) {
	p := a.pass.Fset.Position(pos)
	key := p.String() + format
	if a.reported[key] {
		return
	}
	a.reported[key] = true
	a.pass.Reportf(pos, format+"; release exactly once on every path or annotate //lint:releaseonce <reason>", args...)
}

// --- resource collection ---

func (a *analysis) collectDeferredLits() {
	inspectOwn(a.body, func(n ast.Node) bool {
		if d, ok := n.(*ast.DeferStmt); ok {
			if lit, ok := ast.Unparen(d.Call.Fun).(*ast.FuncLit); ok {
				a.deferredLits[lit] = true
			}
		}
		return true
	})
}

// collectResources finds the acquisition sites in this body (skipping
// nested function literals, which are analyzed separately).
func (a *analysis) collectResources() {
	closed := map[types.Object]bool{}
	inspectOwnOrDeferred(a.body, a.deferredLits, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if obj := a.closedChan(call); obj != nil {
				closed[obj] = true
			}
		}
		return true
	})
	inspectOwn(a.body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if key, disp, held := a.lockTarget(n); key != "" && held {
				kind := kindLock
				if isRead(n) {
					kind = kindRLock
				}
				a.resources[key] = &resource{key: key, kind: kind, display: disp}
			}
		case *ast.AssignStmt:
			if len(n.Rhs) != 1 {
				return true
			}
			call, ok := ast.Unparen(n.Rhs[0]).(*ast.CallExpr)
			if !ok || len(n.Lhs) == 0 {
				return true
			}
			id, ok := n.Lhs[0].(*ast.Ident)
			if !ok || id.Name == "_" {
				return true
			}
			obj := a.objOf(id)
			if obj == nil {
				return true
			}
			if framework.CalleeName(call) == "Acquire" {
				key := valueKey(obj)
				a.resources[key] = &resource{key: key, kind: kindValue, display: id.Name, obj: obj}
			}
			if isMakeChan(a.pass, call) && closed[obj] {
				key := valueKey(obj)
				a.resources[key] = &resource{key: key, kind: kindChan, display: id.Name, obj: obj}
			}
		}
		return true
	})
}

// dropEscaped removes value/chan resources whose variable escapes the
// function: returned, stored into a composite/field/element, sent on a
// channel, address-taken, rebound, or captured by a non-deferred literal.
func (a *analysis) dropEscaped() {
	escaped := map[types.Object]bool{}
	objs := map[types.Object]*resource{}
	for _, r := range a.resources {
		if r.obj != nil {
			objs[r.obj] = r
		}
	}
	if len(objs) == 0 {
		return
	}
	usesTracked := func(n ast.Node) types.Object {
		var found types.Object
		ast.Inspect(n, func(x ast.Node) bool {
			if id, ok := x.(*ast.Ident); ok {
				if obj := a.objOf(id); obj != nil {
					if _, tracked := objs[obj]; tracked {
						found = obj
						return false
					}
				}
			}
			return true
		})
		return found
	}
	var walk func(n ast.Node)
	walk = func(n ast.Node) {
		ast.Inspect(n, func(x ast.Node) bool {
			switch x := x.(type) {
			case *ast.FuncLit:
				if !a.deferredLits[x] {
					if obj := usesTracked(x.Body); obj != nil {
						escaped[obj] = true
					}
				}
				return false
			case *ast.ReturnStmt:
				for _, res := range x.Results {
					if obj := usesTracked(res); obj != nil {
						escaped[obj] = true
					}
				}
			case *ast.CompositeLit:
				for _, elt := range x.Elts {
					if obj := usesTracked(elt); obj != nil {
						escaped[obj] = true
					}
				}
			case *ast.SendStmt:
				if obj := usesTracked(x.Value); obj != nil {
					escaped[obj] = true
				}
			case *ast.UnaryExpr:
				if x.Op == token.AND {
					if obj := usesTracked(x.X); obj != nil {
						escaped[obj] = true
					}
				}
			case *ast.AssignStmt:
				for _, lhs := range x.Lhs {
					// Rebinding the tracked name (other than its defining
					// acquire) loses flow identity. Writes through the value
					// (w.buf = …) are uses.
					if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
						if obj := a.objOf(id); obj != nil {
							if _, tracked := objs[obj]; tracked && !a.isAcquireOrMake(x) {
								escaped[obj] = true
							}
						}
					}
				}
				for _, rhs := range x.Rhs {
					// Aliasing: `w2 := ws` copies the reference. Reads
					// through the value (ws.buf, ws[i], ws.Len()) and call
					// arguments are uses, not aliases, so only a bare
					// identifier on the right escapes.
					if id, ok := ast.Unparen(rhs).(*ast.Ident); ok {
						if obj := a.objOf(id); obj != nil {
							if _, tracked := objs[obj]; tracked {
								escaped[obj] = true
							}
						}
					}
				}
			case *ast.CallExpr:
				// Channels handed to any callee other than close/len/cap may
				// be closed or retained there.
				name := framework.CalleeName(x)
				if name == "close" || name == "len" || name == "cap" {
					return true
				}
				for _, arg := range x.Args {
					if obj := usesTracked(arg); obj != nil && objs[obj].kind == kindChan {
						escaped[obj] = true
					}
				}
			}
			return true
		})
	}
	walk(a.body)
	for obj := range escaped {
		delete(a.resources, objs[obj].key)
	}
}

// isAcquireOrMake reports whether an assignment is one of the recognized
// acquisition forms (so the defining assignment is not an escape).
func (a *analysis) isAcquireOrMake(as *ast.AssignStmt) bool {
	if len(as.Rhs) != 1 {
		return false
	}
	call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
	if !ok {
		return false
	}
	return framework.CalleeName(call) == "Acquire" || isMakeChan(a.pass, call)
}

// --- event extraction ---

// blockEvents lists the resource events of one CFG block in source order.
func (a *analysis) blockEvents(b *framework.Block) []event {
	var evs []event
	for _, n := range b.Nodes {
		if d, ok := n.(*ast.DeferStmt); ok {
			evs = append(evs, a.deferEvents(d)...)
			continue
		}
		inspectOwn(n, func(x ast.Node) bool {
			switch x := x.(type) {
			case *ast.CallExpr:
				evs = append(evs, a.callEvents(x, false)...)
			case *ast.AssignStmt:
				evs = append(evs, a.acquireEvents(x)...)
				return true
			}
			return true
		})
	}
	return evs
}

func (a *analysis) acquireEvents(as *ast.AssignStmt) []event {
	if len(as.Rhs) != 1 || len(as.Lhs) == 0 {
		return nil
	}
	id, ok := as.Lhs[0].(*ast.Ident)
	if !ok {
		return nil
	}
	obj := a.objOf(id)
	if obj == nil {
		return nil
	}
	key := valueKey(obj)
	if _, tracked := a.resources[key]; !tracked {
		return nil
	}
	if a.isAcquireOrMake(as) {
		return []event{{kind: evAcquire, res: key, pos: as.Pos()}}
	}
	return nil
}

// callEvents classifies one call as an acquire/release of a tracked
// resource. deferred marks calls inside a defer statement.
func (a *analysis) callEvents(call *ast.CallExpr, deferred bool) []event {
	kind := evRelease
	if deferred {
		kind = evDefer
	}
	// Lock events.
	if key, _, held := a.lockTarget(call); key != "" {
		if _, tracked := a.resources[key]; tracked {
			if held {
				if deferred {
					// `defer mu.Lock()` — nonsense; ignore.
					return nil
				}
				return []event{{kind: evAcquire, res: key, pos: call.Pos()}}
			}
			return []event{{kind: kind, res: key, pos: call.Pos()}}
		}
		return nil
	}
	// close(ch)
	if obj := a.closedChan(call); obj != nil {
		key := valueKey(obj)
		if _, tracked := a.resources[key]; tracked {
			return []event{{kind: kind, res: key, pos: call.Pos()}}
		}
		return nil
	}
	// Release(x) / x.Release()
	if framework.CalleeName(call) == "Release" {
		if len(call.Args) >= 1 {
			if id, ok := ast.Unparen(call.Args[0]).(*ast.Ident); ok {
				if obj := a.objOf(id); obj != nil {
					key := valueKey(obj)
					if _, tracked := a.resources[key]; tracked {
						return []event{{kind: kind, res: key, pos: call.Pos()}}
					}
				}
			}
		}
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok {
				if obj := a.objOf(id); obj != nil {
					key := valueKey(obj)
					if _, tracked := a.resources[key]; tracked {
						return []event{{kind: kind, res: key, pos: call.Pos()}}
					}
				}
			}
		}
	}
	return nil
}

// deferEvents extracts release events registered by one defer statement.
func (a *analysis) deferEvents(d *ast.DeferStmt) []event {
	if lit, ok := ast.Unparen(d.Call.Fun).(*ast.FuncLit); ok {
		// Releases inside a deferred literal count as deferred releases
		// when unconditional at the literal's top level; a conditional
		// release (the `if ws != nil` pattern) makes the path unknowable
		// intra-procedurally — drop the resource to top instead of guessing.
		var evs []event
		for _, st := range lit.Body.List {
			conditional := false
			switch st.(type) {
			case *ast.ExprStmt:
			default:
				conditional = true
			}
			inspectOwn(st, func(x ast.Node) bool {
				call, ok := x.(*ast.CallExpr)
				if !ok {
					return true
				}
				for _, ev := range a.callEvents(call, true) {
					if conditional {
						ev.kind = evMaybe
					}
					ev.pos = d.Pos()
					evs = append(evs, ev)
				}
				return true
			})
		}
		return evs
	}
	var evs []event
	for _, ev := range a.callEvents(d.Call, true) {
		ev.pos = d.Pos()
		evs = append(evs, ev)
	}
	return evs
}

// --- syntactic helpers ---

// lockTarget classifies a call as Lock/RLock (held=true) or
// Unlock/RUnlock (held=false) on a sync.Mutex/RWMutex-typed expression
// with a stable identifier path, returning the resource key and display
// name. key is "" for anything else.
func (a *analysis) lockTarget(call *ast.CallExpr) (key, display string, held bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", "", false
	}
	var read bool
	switch sel.Sel.Name {
	case "Lock":
		held = true
	case "RLock":
		held, read = true, true
	case "Unlock":
	case "RUnlock":
		read = true
	default:
		return "", "", false
	}
	recv := ast.Unparen(sel.X)
	tv, ok := a.pass.TypesInfo.Types[recv]
	if !ok || !isSyncMutex(tv.Type) {
		return "", "", false
	}
	path := identPath(recv)
	if path == "" {
		return "", "", false
	}
	k := "l:" + path
	if read {
		k += ":r"
	}
	return k, path, held
}

func isRead(call *ast.CallExpr) bool {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		return sel.Sel.Name == "RLock" || sel.Sel.Name == "RUnlock"
	}
	return false
}

// identPath flattens an ident/selector chain (s.mu, c.ring.mu) to a dotted
// string; "" if the chain contains calls, indexing, or anything dynamic.
func identPath(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		base := identPath(e.X)
		if base == "" {
			return ""
		}
		return base + "." + e.Sel.Name
	}
	return ""
}

func isSyncMutex(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return framework.IsNamed(t, "sync", "Mutex") || framework.IsNamed(t, "sync", "RWMutex")
}

// closedChan returns the object of a local channel ident passed to the
// close builtin, nil otherwise.
func (a *analysis) closedChan(call *ast.CallExpr) types.Object {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return nil
	}
	if b, ok := a.pass.TypesInfo.Uses[id].(*types.Builtin); !ok || b.Name() != "close" {
		return nil
	}
	if len(call.Args) != 1 {
		return nil
	}
	arg, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
	if !ok {
		return nil
	}
	return a.objOf(arg)
}

func isMakeChan(pass *framework.Pass, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	if b, ok := pass.TypesInfo.Uses[id].(*types.Builtin); !ok || b.Name() != "make" {
		return false
	}
	if len(call.Args) == 0 {
		return false
	}
	_, isChan := call.Args[0].(*ast.ChanType)
	return isChan
}

func (a *analysis) objOf(id *ast.Ident) types.Object {
	if obj := a.pass.TypesInfo.Uses[id]; obj != nil {
		return obj
	}
	return a.pass.TypesInfo.Defs[id]
}

func valueKey(obj types.Object) string {
	return "v:" + obj.Name() + "@" + strconv.Itoa(int(obj.Pos()))
}

// inspectOwn walks n without descending into nested function literals.
func inspectOwn(n ast.Node, f func(ast.Node) bool) {
	ast.Inspect(n, func(x ast.Node) bool {
		if _, ok := x.(*ast.FuncLit); ok && x != n {
			return false
		}
		return f(x)
	})
}

// inspectOwnOrDeferred walks n, descending into deferred literals but not
// other nested literals.
func inspectOwnOrDeferred(n ast.Node, deferred map[*ast.FuncLit]bool, f func(ast.Node) bool) {
	ast.Inspect(n, func(x ast.Node) bool {
		if lit, ok := x.(*ast.FuncLit); ok && x != n && !deferred[lit] {
			return false
		}
		return f(x)
	})
}
