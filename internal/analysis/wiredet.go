package analysis

import (
	"go/ast"
	"go/types"
)

// wiredetPackages are the byte-deterministic packages: every encoder in
// them must emit identical bytes for identical values, because delta
// parity checks, journal CRCs and cross-version compatibility tests all
// compare encodings byte-for-byte.
var wiredetPackages = map[string]bool{
	"seep/internal/state":        true,
	"seep/internal/wirecodec":    true,
	"seep/internal/controlplane": true,
}

// Wiredet flags map iteration feeding an encoder in the
// byte-deterministic packages: Go map order is randomised, so any bytes
// written from inside a `range m` body differ run to run unless the
// keys were sorted first.
var Wiredet = &Analyzer{
	Name: "wiredet",
	Doc: `flag unsorted map ranges that feed a wire encoder

In seep/internal/state, wirecodec and controlplane the wire formats are
byte-deterministic by contract (delta parity, journal CRC framing and
mixed-version compatibility all compare raw bytes). A for-range over a
map whose body touches a stream.Encoder (as receiver or argument) or
calls a gob/json Encode emits bytes in randomised map order. Collect
the keys into a slice, sort it, then iterate the slice — see
encodeAcks in state/persist.go for the canonical shape.`,
	Run: runWiredet,
}

func runWiredet(pass *Pass) error {
	if !wiredetPackages[pass.Pkg.Path()] {
		return nil
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			rng, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			tv, ok := pass.TypesInfo.Types[rng.X]
			if !ok {
				return true
			}
			if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
				return true
			}
			reported := false
			ast.Inspect(rng.Body, func(m ast.Node) bool {
				if reported {
					return false
				}
				call, ok := m.(*ast.CallExpr)
				if !ok {
					return true
				}
				if enc := encoderUse(pass.TypesInfo, call); enc != "" {
					reported = true
					pass.Reportf(rng.Pos(), "map iteration feeds %s without an interposed sort; map order is randomised, breaking byte-determinism — collect keys, sort, then encode", enc)
					return false
				}
				return true
			})
			return true
		})
	}
	return nil
}

// encoderUse reports how a call involves a wire encoder: a method on
// stream.Encoder, a gob/json Encoder.Encode, or an encoder passed as an
// argument to a helper. Returns "" when the call is encoder-free.
func encoderUse(info *types.Info, call *ast.CallExpr) string {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if tv, ok := info.Types[sel.X]; ok {
			if typeIsNamed(tv.Type, "seep/internal/stream", "Encoder") {
				return "a stream.Encoder method"
			}
			if sel.Sel.Name == "Encode" &&
				(typeIsNamed(tv.Type, "encoding/gob", "Encoder") || typeIsNamed(tv.Type, "encoding/json", "Encoder")) {
				return "an Encode call"
			}
		}
	}
	for _, arg := range call.Args {
		if tv, ok := info.Types[arg]; ok && typeIsNamed(tv.Type, "seep/internal/stream", "Encoder") {
			return "an encoding helper (stream.Encoder argument)"
		}
	}
	return ""
}
