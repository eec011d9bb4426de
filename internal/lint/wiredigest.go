package lint

// wiredigest: the distributed audit fabric's PayloadDigest is only
// well-defined because every byte that crosses the wire goes through the
// canonical encode helpers in internal/pipeline (JSON objects keyed by
// event name; encode∘decode∘encode is the identity on bytes). JSON
// encoding of a *bare* (unnamed) map anywhere else is how a second,
// uncanonical wire format sneaks in: the literal relies implicitly on
// encoding/json's key sorting, carries no schema, and a later switch to
// another encoder (gob, a streaming writer) silently breaks byte
// identity. Flagged:
//
//   - json.Marshal / json.MarshalIndent / (*json.Encoder).Encode of a
//     value whose type is, or contains at the top level (behind
//     pointers/slices/arrays), an unnamed map type;
//   - the same bare-map values passed to a local helper that forwards its
//     parameter into one of those encoders (one level of indirection —
//     the writeJSON(w, code, v) pattern).
//
// Named map types (hpc.Profile) and structs are fine: they are schema.
// The canonical wire layer itself (repro/internal/pipeline) is exempt.
//
// encoding/gob, unlike encoding/json, does not sort map keys: it walks
// them in Go's randomized iteration order, so the same value encodes to
// different bytes from run to run. Every package is therefore flagged
// for (*gob.Encoder).Encode of a value whose type contains a map at any
// depth — through struct fields, pointers, slices and arrays, named map
// types included.

import (
	"go/ast"
	"go/types"
)

// Wiredigest is the ad-hoc wire-format analyzer.
var Wiredigest = &Analyzer{
	Name: "wiredigest",
	Doc:  "flags JSON encoding of bare map types outside the canonical pipeline wire layer, and gob encoding of any map",
	Run:  runWiredigest,
}

// wireLayerPkg is the canonical JSON encode/decode layer, exempt by
// design from the JSON check.
const wireLayerPkg = "repro/internal/pipeline"

func runWiredigest(pass *Pass) {
	checkJSON := pass.ExplicitDir || pass.Path != wireLayerPkg
	var sinks map[types.Object][]int
	if checkJSON {
		sinks = encodeSinks(pass)
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if isGobEncodeCall(pass.Info, call) && len(call.Args) == 1 {
				if t := pass.Info.TypeOf(call.Args[0]); t != nil && containsMap(t, map[types.Type]bool{}) {
					pass.Reportf(call.Args[0].Pos(), "%s has a map in its type and is gob encoded: gob walks maps in random order, so the bytes differ run to run (store a slice in a fixed order)",
						exprString(pass.Fset, call.Args[0]))
				}
				return true
			}
			if !checkJSON {
				return true
			}
			for _, idx := range encodeArgIndices(pass, call, sinks) {
				if idx >= len(call.Args) {
					continue
				}
				arg := call.Args[idx]
				if t := pass.Info.TypeOf(arg); t != nil && bareMap(t) {
					pass.Reportf(arg.Pos(), "bare map %s encoded as JSON outside the canonical wire layer: give it a named type or struct schema (or route it through the pipeline encode helpers)",
						exprString(pass.Fset, arg))
				}
			}
			return true
		})
	}
}

// encodeArgIndices returns the argument positions of call that are JSON
// encoded: arg 0 for the json entry points, and the sink parameter
// positions for local forwarding helpers.
func encodeArgIndices(pass *Pass, call *ast.CallExpr, sinks map[types.Object][]int) []int {
	if isJSONEncodeCall(pass.Info, call) {
		return []int{0}
	}
	if f := calleeFunc(pass.Info, call); f != nil {
		if idxs, ok := sinks[f]; ok {
			return idxs
		}
	}
	return nil
}

// isJSONEncodeCall matches json.Marshal, json.MarshalIndent and
// (*json.Encoder).Encode.
func isJSONEncodeCall(info *types.Info, call *ast.CallExpr) bool {
	f := calleeFunc(info, call)
	if f == nil || f.Pkg() == nil || f.Pkg().Path() != "encoding/json" {
		return false
	}
	sig, ok := f.Type().(*types.Signature)
	if !ok {
		return false
	}
	if sig.Recv() == nil {
		return f.Name() == "Marshal" || f.Name() == "MarshalIndent"
	}
	return f.Name() == "Encode"
}

// isGobEncodeCall matches (*gob.Encoder).Encode.
func isGobEncodeCall(info *types.Info, call *ast.CallExpr) bool {
	f := calleeFunc(info, call)
	if f == nil || f.Pkg() == nil || f.Pkg().Path() != "encoding/gob" || f.Name() != "Encode" {
		return false
	}
	sig, ok := f.Type().(*types.Signature)
	return ok && sig.Recv() != nil
}

// containsMap reports whether t has a map anywhere in its structure,
// named or not. seen breaks cycles through recursive named types.
func containsMap(t types.Type, seen map[types.Type]bool) bool {
	if seen[t] {
		return false
	}
	seen[t] = true
	switch u := t.(type) {
	case *types.Map:
		return true
	case *types.Named:
		return containsMap(u.Underlying(), seen)
	case *types.Alias:
		return containsMap(types.Unalias(u), seen)
	case *types.Pointer:
		return containsMap(u.Elem(), seen)
	case *types.Slice:
		return containsMap(u.Elem(), seen)
	case *types.Array:
		return containsMap(u.Elem(), seen)
	case *types.Struct:
		for i := range u.NumFields() {
			if containsMap(u.Field(i).Type(), seen) {
				return true
			}
		}
	}
	return false
}

// encodeSinks finds package-level functions that forward a parameter into
// a JSON encoder (one level deep), mapping the function object to the
// forwarded parameter indices.
func encodeSinks(pass *Pass) map[types.Object][]int {
	sinks := map[types.Object][]int{}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj := pass.Info.Defs[fd.Name]
			if obj == nil {
				continue
			}
			params := map[types.Object]int{}
			i := 0
			if fd.Type.Params != nil {
				for _, field := range fd.Type.Params.List {
					for _, name := range field.Names {
						if p := pass.Info.Defs[name]; p != nil {
							params[p] = i
						}
						i++
					}
					if len(field.Names) == 0 {
						i++
					}
				}
			}
			var idxs []int
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || !isJSONEncodeCall(pass.Info, call) || len(call.Args) == 0 {
					return true
				}
				if p := objectOf(pass.Info, call.Args[0]); p != nil {
					if idx, isParam := params[p]; isParam {
						idxs = append(idxs, idx)
					}
				}
				return true
			})
			if len(idxs) > 0 {
				sinks[obj] = idxs
			}
		}
	}
	return sinks
}

// bareMap reports whether t is an unnamed map type, possibly behind
// pointers, slices or arrays. Named map types are schema and pass.
func bareMap(t types.Type) bool {
	for range 8 {
		switch u := t.(type) {
		case *types.Map:
			return true
		case *types.Pointer:
			t = u.Elem()
		case *types.Slice:
			t = u.Elem()
		case *types.Array:
			t = u.Elem()
		case *types.Alias:
			t = types.Unalias(t)
		default:
			return false
		}
	}
	return false
}
