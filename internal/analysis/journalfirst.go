package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Journalfirst enforces the PR 7 control-plane discipline in
// seep/internal/dist: a Coordinator method that mutates journaled
// (replay-authoritative) state must append its journal record before
// anything escapes to a worker, so a coordinator that dies mid-method
// always replays a state that is a superset of what workers saw.
var Journalfirst = &Analyzer{
	Name: "journalfirst",
	Doc: `flag worker-visible sends that precede the journal append

Coordinator struct fields marked // seep:journaled are authoritative
control-plane state, reconstructed from the journal on failover. In
any Coordinator method (or function literal) that mutates
one of those fields, every worker-visible send — c.broadcast, c.sendTo,
peer.SendControl — must come lexically after a
c.journal(...) call in the same scope: the record has to be durable
before workers can observe the new state, or a replayed coordinator
knows less than its fleet ("the deployment snapshot is journaled
before any worker sees the plan"). Functions marked // seep:replay are
exempt: they apply journal-derived state during recovery, where the
journal itself is the source.`,
	Run: runJournalfirst,
}

// journalfirstSends are the worker-visible escape calls.
var journalfirstSends = map[string]bool{
	"broadcast":   true,
	"sendTo":      true,
	"SendControl": true,
}

func runJournalfirst(pass *Pass) error {
	if !strings.HasSuffix(pass.Pkg.Path(), "internal/dist") {
		return nil
	}
	journaled, coordPos := journaledFields(pass)
	if len(journaled) == 0 {
		if coordPos != token.NoPos {
			// The struct exists but nothing is marked: the discipline
			// has drifted out of the source. Flag once, on the struct.
			pass.Reportf(coordPos, "Coordinator declares no // seep:journaled fields; mark the journal-replayed authoritative state so journalfirst can check the PR 7 discipline")
		}
		return nil
	}

	for _, file := range pass.Files {
		for _, scope := range funcScopes(file) {
			if scope.decl == nil || !isCoordinatorMethod(pass.TypesInfo, scope.decl) {
				continue
			}
			if hasDirective(FuncDirectives(scope.decl), "replay") {
				continue
			}
			checkJournalOrder(pass, scope, journaled)
		}
	}
	return nil
}

type jfEvent struct {
	pos  token.Pos
	kind int // 0 mutation, 1 journal, 2 send
	what string
}

func checkJournalOrder(pass *Pass, scope funcScope, journaled map[*types.Var]bool) {
	var events []jfEvent
	scopeWalk(scope, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range s.Lhs {
				if v, sel := journaledTarget(pass.TypesInfo, lhs, journaled); v != nil {
					events = append(events, jfEvent{pos: sel.Pos(), kind: 0, what: v.Name()})
				}
			}
		case *ast.IncDecStmt:
			if v, sel := journaledTarget(pass.TypesInfo, s.X, journaled); v != nil {
				events = append(events, jfEvent{pos: sel.Pos(), kind: 0, what: v.Name()})
			}
		case *ast.CallExpr:
			// delete(c.placement, k) mutates; c.journal(...) anchors;
			// send calls escape.
			if id, ok := ast.Unparen(s.Fun).(*ast.Ident); ok && id.Name == "delete" && len(s.Args) > 0 {
				if v, sel := journaledTarget(pass.TypesInfo, s.Args[0], journaled); v != nil {
					events = append(events, jfEvent{pos: sel.Pos(), kind: 0, what: v.Name()})
				}
				return true
			}
			sel, ok := ast.Unparen(s.Fun).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			switch {
			case sel.Sel.Name == "journal" && recvIsCoordinator(pass.TypesInfo, sel):
				events = append(events, jfEvent{pos: s.Pos(), kind: 1})
			case journalfirstSends[sel.Sel.Name]:
				events = append(events, jfEvent{pos: s.Pos(), kind: 2, what: sel.Sel.Name})
			}
		}
		return true
	})
	sort.Slice(events, func(i, j int) bool { return events[i].pos < events[j].pos })

	mutated := ""
	for _, ev := range events {
		if ev.kind == 0 {
			mutated = ev.what
			break
		}
	}
	if mutated == "" {
		return
	}
	journalAt := token.NoPos
	for _, ev := range events {
		if ev.kind == 1 {
			journalAt = ev.pos
			break
		}
	}
	for _, ev := range events {
		if ev.kind != 2 || (journalAt != token.NoPos && ev.pos > journalAt) {
			continue
		}
		name := scope.decl.Name.Name
		if journalAt == token.NoPos {
			pass.Reportf(ev.pos, "%s mutates journaled field %s but sends %s to workers without any c.journal call; journal the record first (or mark the method // seep:replay if it applies journal-derived state)", name, mutated, ev.what)
		} else {
			pass.Reportf(ev.pos, "%s sends %s to workers before its c.journal call while mutating journaled field %s; the record must be durable before workers observe the new state", name, ev.what, mutated)
		}
	}
}

// journaledTarget resolves an expression (selector, or an index/slice
// over a selector) to a journaled Coordinator field.
func journaledTarget(info *types.Info, e ast.Expr, journaled map[*types.Var]bool) (*types.Var, ast.Expr) {
	e = ast.Unparen(e)
	if ix, ok := e.(*ast.IndexExpr); ok {
		e = ast.Unparen(ix.X)
	}
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return nil, nil
	}
	v := fieldVar(info, sel)
	if v == nil || !journaled[v] {
		return nil, nil
	}
	return v, sel
}

// journaledFields collects the seep:journaled fields of the Coordinator
// struct. The position result locates the Coordinator struct (NoPos
// when the package has none).
func journaledFields(pass *Pass) (map[*types.Var]bool, token.Pos) {
	out := make(map[*types.Var]bool)
	found := token.NoPos
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok || ts.Name.Name != "Coordinator" {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				found = ts.Pos()
				for _, field := range st.Fields.List {
					marked := hasDirective(ParseDirectives(field.Doc), "journaled") ||
						hasDirective(ParseDirectives(field.Comment), "journaled")
					if !marked {
						continue
					}
					for _, name := range field.Names {
						if v, ok := pass.TypesInfo.Defs[name].(*types.Var); ok {
							out[v] = true
						}
					}
				}
			}
		}
	}
	return out, found
}

func hasDirective(ds []Directive, verb string) bool {
	for _, d := range ds {
		if d.Verb == verb {
			return true
		}
	}
	return false
}

// isCoordinatorMethod reports whether fn is declared on *Coordinator.
func isCoordinatorMethod(info *types.Info, fn *ast.FuncDecl) bool {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return false
	}
	tv, ok := info.Types[fn.Recv.List[0].Type]
	if !ok {
		return false
	}
	return namedIs(tv.Type, "Coordinator")
}

// recvIsCoordinator reports whether a method selector's receiver is a
// Coordinator value.
func recvIsCoordinator(info *types.Info, sel *ast.SelectorExpr) bool {
	tv, ok := info.Types[sel.X]
	return ok && namedIs(tv.Type, "Coordinator")
}

func namedIs(t types.Type, name string) bool {
	for {
		p, ok := t.(*types.Pointer)
		if !ok {
			break
		}
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	return ok && n.Obj() != nil && n.Obj().Name() == name
}
