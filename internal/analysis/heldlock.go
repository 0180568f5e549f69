package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Heldlock replaces the prose "Caller holds e.mu" comments with checked
// // seep:locks annotations: every caller of an annotated function must
// hold (or itself declare) the lock, and nothing may block on a channel
// send or a flow-control wait while an annotated mutex is held — the
// PR 8 emitMu deadlock class.
var Heldlock = &Analyzer{
	Name: "heldlock",
	Doc: `check // seep:locks preconditions and flag blocking under locks

A function annotated // seep:locks <root>.<field>... (root names its
receiver or a parameter, e.g. "e.mu" or "n.mu") requires that lock held
on entry. The analyzer checks, lexically within each caller:

  - every call to an annotated function happens either inside a
    function declaring the same lock or after a matching .Lock()/
    .RLock() with no intervening .Unlock()/.RUnlock();
  - an annotated function never re-locks a lock it declares held;
  - while any annotated mutex is held, no blocking channel send and no
    call to a // seep:blocking function (full-queue waits) occurs.
    Sends inside a select with a default or an alternative case are
    exempt: the author wrote an escape path, which is exactly what the
    deadlocking bare send lacked.

The check is lexical per function body: function literals are separate
scopes (their bodies usually run on other goroutines), and control flow
between Lock and Unlock is approximated by source order — an Unlock
immediately followed by return/break/continue/panic is an early-exit
path and does not end the lock region for the code after its block.`,
	Run: runHeldlock,
}

// lockSpec is one resolved seep:locks requirement of a function.
type lockSpec struct {
	rootSlot int      // -1 = receiver, else parameter index
	rootName string   // annotation spelling ("e")
	path     []string // field path ("mu")
	field    *types.Var
	raw      string // original annotation text ("e.mu")
}

func runHeldlock(pass *Pass) error {
	annotated := make(map[*types.Func][]lockSpec)
	blocking := make(map[*types.Func]bool)
	annotatedMutex := make(map[*types.Var]bool)

	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			obj, _ := pass.TypesInfo.Defs[fn.Name].(*types.Func)
			if obj == nil {
				continue
			}
			for _, d := range FuncDirectives(fn) {
				switch d.Verb {
				case "blocking":
					blocking[obj] = true
				case "locks":
					if len(d.Args) == 0 {
						pass.Reportf(d.Pos, "seep:locks needs at least one <root>.<field> argument")
						continue
					}
					for _, arg := range d.Args {
						spec, err := resolveLockSpec(obj, arg)
						if err != nil {
							pass.Reportf(d.Pos, "seep:locks %s: %v", arg, err)
							continue
						}
						annotated[obj] = append(annotated[obj], spec)
						if spec.field != nil {
							annotatedMutex[spec.field] = true
						}
					}
				}
			}
		}
	}
	if len(annotated) == 0 && len(blocking) == 0 {
		return nil
	}
	for _, file := range pass.Files {
		for _, scope := range funcScopes(file) {
			checkScope(pass, scope, annotated, blocking, annotatedMutex)
		}
	}
	return nil
}

// resolveLockSpec parses "e.mu" against fn's signature, resolving the
// final field so annotated mutexes can be recognised at lock sites.
func resolveLockSpec(fn *types.Func, arg string) (lockSpec, error) {
	parts := strings.Split(arg, ".")
	if len(parts) < 2 {
		return lockSpec{}, fmt.Errorf("want <root>.<field>[.<field>...]")
	}
	sig := fn.Type().(*types.Signature)
	spec := lockSpec{rootSlot: -2, rootName: parts[0], path: parts[1:], raw: arg}
	var rootType types.Type
	if recv := sig.Recv(); recv != nil && recv.Name() == parts[0] {
		spec.rootSlot = -1
		rootType = recv.Type()
	} else {
		for i := 0; i < sig.Params().Len(); i++ {
			if sig.Params().At(i).Name() == parts[0] {
				spec.rootSlot = i
				rootType = sig.Params().At(i).Type()
				break
			}
		}
	}
	if spec.rootSlot == -2 {
		return lockSpec{}, fmt.Errorf("%q is not the receiver or a parameter of %s", parts[0], fn.Name())
	}
	t := rootType
	for _, name := range spec.path {
		obj, _, _ := types.LookupFieldOrMethod(t, true, fn.Pkg(), name)
		v, ok := obj.(*types.Var)
		if !ok {
			return lockSpec{}, fmt.Errorf("no field %q on %s", name, t)
		}
		spec.field = v
		t = v.Type()
	}
	return spec, nil
}

// hlEvent is one ordered occurrence inside a scope.
type hlEvent struct {
	pos  token.Pos
	kind int // 0 lock, 1 unlock, 2 annotated call, 3 send, 4 blocking call
	// lock/unlock: canon key + field of the mutex operand.
	canon string
	field *types.Var
	// annotated call: required locks (canon -> spelling) and callee.
	requires map[string]string
	callee   string
	// a requirement whose root expression could not be canonicalised.
	unverifiable string
}

func checkScope(pass *Pass, scope funcScope, annotated map[*types.Func][]lockSpec, blocking map[*types.Func]bool, annotatedMutex map[*types.Var]bool) {
	info := pass.TypesInfo

	// Entry state: a declaration scope of an annotated function starts
	// with its declared locks held (literals start bare).
	held := make(map[string]*types.Var) // canon -> mutex field (nil for locals)
	declared := make(map[string]bool)
	var ownObj *types.Func
	if scope.lit == nil && scope.decl != nil {
		ownObj, _ = info.Defs[scope.decl.Name].(*types.Func)
		for _, spec := range annotated[ownObj] {
			canon := entryCanon(info, scope.decl, spec)
			if canon != "" {
				held[canon] = spec.field
				declared[canon] = true
			}
		}
	}

	var events []hlEvent
	deferred := make(map[ast.Node]bool)
	exemptSend := make(map[ast.Stmt]bool)
	abandoning := make(map[*ast.CallExpr]bool)
	scopeWalk(scope, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.DeferStmt:
			deferred[s.Call] = true
		case *ast.BlockStmt:
			markAbandoning(s.List, abandoning)
		case *ast.CaseClause:
			markAbandoning(s.Body, abandoning)
		case *ast.CommClause:
			markAbandoning(s.Body, abandoning)
		case *ast.SelectStmt:
			// A send in a select with an alternative way out (default or
			// another case) is a designed fallback, not the bare send
			// that wedges under a lock.
			if len(s.Body.List) >= 2 {
				for _, c := range s.Body.List {
					if cc, ok := c.(*ast.CommClause); ok && cc.Comm != nil {
						if send, ok := cc.Comm.(*ast.SendStmt); ok {
							exemptSend[send] = true
						}
					}
				}
			}
		case *ast.SendStmt:
			if !exemptSend[s] {
				events = append(events, hlEvent{pos: s.Pos(), kind: 3})
			}
		case *ast.CallExpr:
			for _, ev := range callEvents(info, s, deferred[s], annotated, blocking) {
				if ev.kind == 1 && abandoning[s] {
					// Early-exit unlock (mu.Unlock(); return): the main
					// flow after this block still holds the lock.
					continue
				}
				events = append(events, ev)
			}
		}
		return true
	})
	sort.Slice(events, func(i, j int) bool { return events[i].pos < events[j].pos })

	funcName := "function literal"
	if scope.decl != nil {
		funcName = scope.decl.Name.Name
		if scope.lit != nil {
			funcName = "function literal in " + funcName
		}
	}

	for _, ev := range events {
		switch ev.kind {
		case 0:
			if declared[ev.canon] && scope.lit == nil {
				pass.Reportf(ev.pos, "%s declares this lock held on entry (// seep:locks) but locks it again: guaranteed self-deadlock on sync.Mutex", funcName)
				continue
			}
			held[ev.canon] = ev.field
		case 1:
			delete(held, ev.canon)
		case 2:
			for canon, spelling := range ev.requires {
				if _, ok := held[canon]; !ok {
					pass.Reportf(ev.pos, "call to %s requires %s held (// seep:locks); %s neither holds it at this point nor declares it", ev.callee, spelling, funcName)
				}
			}
			if ev.unverifiable != "" {
				pass.Reportf(ev.pos, "call to %s requires %s held (// seep:locks) but the lock owner is not a simple variable path here; restructure the call so the precondition is checkable", ev.callee, ev.unverifiable)
			}
		case 3, 4:
			for canon, field := range held {
				if field == nil || !annotatedMutex[field] {
					continue
				}
				what := "blocking channel send"
				if ev.kind == 4 {
					what = "call to " + ev.callee + " (// seep:blocking)"
				}
				pass.Reportf(ev.pos, "%s while %s holds annotated mutex %s: the emitMu deadlock class — a stalled wait under a lock wedges every path that needs the lock; move it past the unlock or make it non-blocking", what, funcName, canonSpelling(canon))
			}
		}
	}
}

// markAbandoning records calls (in statement position) whose next
// sibling statement terminates the flow — the early-exit unlock shape.
func markAbandoning(list []ast.Stmt, out map[*ast.CallExpr]bool) {
	for i, stmt := range list {
		es, ok := stmt.(*ast.ExprStmt)
		if !ok || i+1 >= len(list) {
			continue
		}
		call, ok := ast.Unparen(es.X).(*ast.CallExpr)
		if !ok {
			continue
		}
		switch next := list[i+1].(type) {
		case *ast.ReturnStmt, *ast.BranchStmt:
			out[call] = true
		case *ast.ExprStmt:
			if c, ok := ast.Unparen(next.X).(*ast.CallExpr); ok {
				if id, ok := ast.Unparen(c.Fun).(*ast.Ident); ok && id.Name == "panic" {
					out[call] = true
				}
			}
		}
	}
}

// callEvents classifies one call expression into lock/unlock/annotated/
// blocking events.
func callEvents(info *types.Info, call *ast.CallExpr, isDeferred bool, annotated map[*types.Func][]lockSpec, blocking map[*types.Func]bool) []hlEvent {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if isSel {
		name := sel.Sel.Name
		if name == "Lock" || name == "RLock" || name == "Unlock" || name == "RUnlock" {
			if tv, ok := info.Types[sel.X]; ok && isMutexType(tv.Type) {
				if isDeferred {
					// defer mu.Unlock() holds to scope end; defer
					// mu.Lock() would be bizarre — ignore both.
					return nil
				}
				canon := canonPath(info, sel.X)
				if canon == "" {
					return nil
				}
				kind := 0
				if name == "Unlock" || name == "RUnlock" {
					kind = 1
				}
				var field *types.Var
				if fsel, ok := ast.Unparen(sel.X).(*ast.SelectorExpr); ok {
					field = fieldVar(info, fsel)
				}
				return []hlEvent{{pos: call.Pos(), kind: kind, canon: canon, field: field}}
			}
		}
	}
	callee := calleeFunc(info, call)
	if callee == nil {
		return nil
	}
	if blocking[callee] {
		return []hlEvent{{pos: call.Pos(), kind: 4, callee: callee.Name()}}
	}
	specs := annotated[callee]
	if len(specs) == 0 {
		return nil
	}
	ev := hlEvent{pos: call.Pos(), kind: 2, callee: callee.Name(), requires: make(map[string]string)}
	for _, spec := range specs {
		var rootExpr ast.Expr
		if spec.rootSlot == -1 {
			if !isSel {
				continue // method value or same-package unqualified call
			}
			rootExpr = sel.X
		} else if spec.rootSlot < len(call.Args) {
			rootExpr = call.Args[spec.rootSlot]
		}
		if rootExpr == nil {
			continue
		}
		canon := canonPath(info, rootExpr)
		if canon == "" {
			ev.unverifiable = spec.raw
			continue
		}
		canon += "." + strings.Join(spec.path, ".")
		ev.requires[canon] = renderLock(rootExpr, spec.path)
	}
	return []hlEvent{ev}
}

// entryCanon renders the canonical key of a declared lock from the
// annotated function's own receiver/parameter identifiers.
func entryCanon(info *types.Info, fn *ast.FuncDecl, spec lockSpec) string {
	var ident *ast.Ident
	if spec.rootSlot == -1 {
		if len(fn.Recv.List) > 0 && len(fn.Recv.List[0].Names) > 0 {
			ident = fn.Recv.List[0].Names[0]
		}
	} else {
		i := 0
		for _, f := range fn.Type.Params.List {
			for _, name := range f.Names {
				if i == spec.rootSlot {
					ident = name
				}
				i++
			}
		}
	}
	if ident == nil {
		return ""
	}
	obj := info.Defs[ident]
	if obj == nil {
		return ""
	}
	return fmt.Sprintf("%s@%d.%s", obj.Name(), obj.Pos(), strings.Join(spec.path, "."))
}

// renderLock spells a required lock for diagnostics ("e.mu").
func renderLock(root ast.Expr, path []string) string {
	base := "?"
	switch x := ast.Unparen(root).(type) {
	case *ast.Ident:
		base = x.Name
	case *ast.SelectorExpr:
		base = x.Sel.Name
	}
	return base + "." + strings.Join(path, ".")
}

// canonSpelling strips the @pos disambiguator for display.
func canonSpelling(canon string) string {
	if i := strings.IndexByte(canon, '@'); i >= 0 {
		if j := strings.IndexByte(canon[i:], '.'); j >= 0 {
			return canon[:i] + canon[i+j:]
		}
		return canon[:i]
	}
	return canon
}

// isMutexType reports whether t (or *t) is sync.Mutex or sync.RWMutex.
func isMutexType(t types.Type) bool {
	return typeIsNamed(t, "sync", "Mutex") || typeIsNamed(t, "sync", "RWMutex")
}
