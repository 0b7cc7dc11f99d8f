// Package flow is the interprocedural substrate of the lint suite: a
// package-set call graph over go/ast + go/types (standard library only)
// with one summary per function — allocating constructs, context
// parameters, error-result usage, resources acquired and released — and
// the path-insensitive walks the interprocedural analyzers (hotalloc,
// ctxflow, sinkclose, lockcheck) run over it.
//
// The graph is built once per lint run over every loaded package.
// Because the loader type-checks each analyzed package independently
// (a dependency seen from package A is a different *types.Package
// instance than the same package analyzed directly), functions are
// keyed by their canonical full name — "pkg/path.Func" or
// "(*pkg/path.Recv).Method" — rather than by object identity; both
// views of one function produce the same key. Edges into packages
// outside the analyzed set stay unresolved and are classified by the
// external-call tables in alloctable.go.
package flow

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// PackageInfo is one loaded package's analysis surface — the subset of
// the lint loader's Package the flow engine needs. The flow package
// deliberately does not import the lint framework (lint imports flow).
type PackageInfo struct {
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
}

// Graph is the package-set call graph.
type Graph struct {
	// Funcs maps canonical function keys (types.Func.FullName of the
	// generic origin) to nodes. Only functions with bodies in the
	// analyzed set appear; external callees are edges without nodes.
	Funcs map[string]*Func

	byDecl map[*ast.FuncDecl]*Func
	fset   *token.FileSet
	severs map[*Func]severState
}

// Func is one function with a body in the analyzed set.
type Func struct {
	// Key is the canonical identity, e.g.
	// "(*twocs/internal/sim.Program).Run".
	Key  string
	Obj  *types.Func
	Decl *ast.FuncDecl
	Pkg  *PackageInfo
	// Calls lists every call site in the body (including bodies of
	// function literals declared inside it), in source order.
	Calls []*Call
	// Summary holds the per-function facts; see summary.go.
	Summary *Summary
}

// Name returns a short human-readable name: "Func" or "(*Recv).Method"
// with the package path stripped.
func (f *Func) Name() string {
	key := f.Key
	if i := strings.LastIndex(key, "/"); i >= 0 {
		key = key[i+1:]
	}
	// "(*sim.Program).Run" after path strip reads fine; drop a
	// leading "pkg." on plain functions.
	if !strings.HasPrefix(key, "(") {
		if i := strings.Index(key, "."); i >= 0 {
			key = key[i+1:]
		}
	}
	return key
}

// Call is one call site inside a Func body.
type Call struct {
	Site *ast.CallExpr
	// Key is the callee's canonical key ("" when the callee could not
	// be resolved to a named function — a dynamic call).
	Key string
	// Callee is the in-set callee node, nil for external or dynamic
	// callees.
	Callee *Func
	// Obj is the resolved callee object even when external; nil for
	// dynamic calls.
	Obj *types.Func
	// Dynamic marks calls through interface methods or function-typed
	// values (excluding local closures, whose bodies are folded into
	// the enclosing function's summary and call list).
	Dynamic bool
	// ErrorPath marks calls inside a branch that terminates in an
	// error return; Guarded marks calls inside a cap()-guarded grow
	// block; TelemetryGated marks calls inside a telemetry-enabled
	// check. The exemption flags mirror AllocSite's.
	ErrorPath      bool
	Guarded        bool
	TelemetryGated bool
	// CtxArg is the argument expression passed in the callee's
	// context.Context parameter position, nil when the callee takes no
	// context (or the call passes too few args).
	CtxArg ast.Expr
}

// Pos returns the call's position.
func (c *Call) Pos() token.Pos { return c.Site.Pos() }

// FuncKey canonicalizes a function object to its graph key, using the
// generic origin so instantiations share one node.
func FuncKey(obj *types.Func) string {
	if obj == nil {
		return ""
	}
	if o := obj.Origin(); o != nil {
		obj = o
	}
	return obj.FullName()
}

// Build constructs the call graph and every function summary over the
// given packages. The packages should be the full set a lint run
// loaded: edges between analyzed packages resolve by key, edges out of
// the set stay external.
func Build(pkgs []*PackageInfo) *Graph {
	g := &Graph{
		Funcs:  make(map[string]*Func),
		byDecl: make(map[*ast.FuncDecl]*Func),
	}
	// Two passes: first register every declared function so intra- and
	// cross-package edges resolve regardless of declaration order, then
	// summarize bodies. Test-package views of a function (pkg and
	// pkg_test load the same file set) register once — first wins, and
	// iteration over pkgs is caller-ordered (sorted by path), so the
	// choice is deterministic.
	for _, pkg := range pkgs {
		if g.fset == nil {
			g.fset = pkg.Fset
		}
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				key := FuncKey(obj)
				if _, dup := g.Funcs[key]; dup {
					continue
				}
				g.Funcs[key] = &Func{Key: key, Obj: obj, Decl: fd, Pkg: pkg}
				g.byDecl[fd] = g.Funcs[key]
			}
		}
	}
	for _, f := range sortedFuncs(g) {
		summarize(f)
	}
	propagate(g)
	return g
}

// FuncOf resolves a function object (from any package's view) to its
// graph node, nil when the function has no body in the analyzed set.
func (g *Graph) FuncOf(obj *types.Func) *Func {
	if obj == nil {
		return nil
	}
	return g.Funcs[FuncKey(obj)]
}

// FuncAt returns the node for a declaration in the analyzed set.
func (g *Graph) FuncAt(decl *ast.FuncDecl) *Func { return g.byDecl[decl] }

// sortedFuncs returns the graph's functions in deterministic key order.
func sortedFuncs(g *Graph) []*Func {
	out := make([]*Func, 0, len(g.Funcs))
	for _, f := range g.Funcs {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}
