// Package analysis is seep's static-analysis suite: six passes that
// machine-check invariants the codebase previously stated only in
// prose — lock preconditions, the coordinator's journal-before-effect
// discipline, timer hygiene, wire byte-determinism, atomic/plain access
// mixing and the option/substrate registry.
//
// The framework mirrors the golang.org/x/tools/go/analysis API shape
// (Analyzer, Pass, Diagnostic) but is built on the standard library
// alone, so the suite needs no module downloads: the driver loads
// packages with `go list`, parses them with go/parser and type-checks
// them with go/types using the stdlib source importer.
//
// # Annotation grammar
//
// Analyzers read machine-readable directives from doc comments. A
// directive is a comment line of the form
//
//	// seep:<verb> [args...]
//
// (the space after // is optional). Verbs:
//
//	seep:locks <path> [<path>...]
//	    On a function or method: every listed lock must be held on
//	    entry. Each <path> is <root>.<field>[.<field>...] where <root>
//	    names the receiver or a parameter of the annotated function
//	    (e.g. "e.mu", "n.mu"). Checked by the heldlock analyzer.
//
//	seep:blocking
//	    On a function or method: it may block on flow control (a full
//	    input queue, backpressure waits). heldlock flags calls to blocking
//	    functions made while an annotated mutex is held.
//
//	seep:journaled
//	    On a Coordinator struct field: the field is authoritative
//	    control-plane state reconstructed from the journal.
//	    Checked by the journalfirst analyzer.
//
//	seep:replay
//	    On a function or method: it applies journal-derived state
//	    during replay/reconciliation, so journalfirst does not require
//	    a fresh journal append before its sends.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Analyzer describes one static-analysis pass.
type Analyzer struct {
	// Name identifies the pass in diagnostics and on the command line.
	Name string
	// Doc is a one-paragraph description (first line is the summary).
	Doc string
	// Run applies the pass to one package, reporting findings through
	// pass.Report. The returned error aborts the whole run (reserved
	// for internal failures, not findings).
	Run func(pass *Pass) error
}

// Pass carries one package's parsed and type-checked form to an
// analyzer, plus the report sink.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diags *[]Diagnostic
}

// Diagnostic is one finding.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// NewPass assembles a Pass whose findings append to diags.
func NewPass(a *Analyzer, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, diags *[]Diagnostic) *Pass {
	return &Pass{Analyzer: a, Fset: fset, Files: files, Pkg: pkg, TypesInfo: info, diags: diags}
}

// Directive is one parsed seep: annotation.
type Directive struct {
	// Verb is the word after "seep:" (locks, blocking, journaled,
	// replay).
	Verb string
	// Args are the whitespace-separated arguments after the verb.
	Args []string
	// Pos locates the directive comment (for diagnostics about the
	// annotation itself).
	Pos token.Pos
}

// ParseDirectives extracts seep: directives from a comment group.
func ParseDirectives(doc *ast.CommentGroup) []Directive {
	if doc == nil {
		return nil
	}
	var out []Directive
	for _, c := range doc.List {
		text := strings.TrimPrefix(c.Text, "//")
		text = strings.TrimSpace(text)
		if !strings.HasPrefix(text, "seep:") {
			continue
		}
		fields := strings.Fields(strings.TrimPrefix(text, "seep:"))
		if len(fields) == 0 {
			continue
		}
		// The verb may be glued to the colon ("seep:locks e.mu").
		out = append(out, Directive{Verb: fields[0], Args: fields[1:], Pos: c.Pos()})
	}
	return out
}

// FuncDirectives returns the seep: directives on a function
// declaration, looking at both the doc comment and, for grouped decls,
// line comments directly above.
func FuncDirectives(fn *ast.FuncDecl) []Directive {
	return ParseDirectives(fn.Doc)
}

// All returns the full suite in a stable order.
func All() []*Analyzer {
	return []*Analyzer{
		Heldlock,
		Journalfirst,
		Timerleak,
		Wiredet,
		Atomicmix,
		Optmatrix,
	}
}

// Lookup returns the analyzer with the given name, or nil.
func Lookup(name string) *Analyzer {
	for _, a := range All() {
		if a.Name == name {
			return a
		}
	}
	return nil
}
