package flow

import "go/types"

// propagate runs after every summary exists: it resolves call edges to
// in-set nodes by canonical key, then iterates the ClosesParams
// fixpoint (a parameter forwarded to a callee that closes it is closed
// here too).
func propagate(g *Graph) {
	for _, f := range g.Funcs {
		for _, c := range f.Calls {
			if c.Key != "" && !c.Dynamic {
				c.Callee = g.Funcs[c.Key]
			}
		}
	}

	// ClosesParams fixpoint. Seed with direct closes; each round lifts a
	// close through one forwarding edge. The lattice is finite (param
	// index sets only grow), so this terminates.
	for _, f := range g.Funcs {
		s := f.Summary
		s.ClosesParams = make(map[int]bool, len(s.closesDirect))
		for idx := range s.closesDirect {
			s.ClosesParams[idx] = true
		}
	}
	for changed := true; changed; {
		changed = false
		for _, f := range sortedFuncs(g) {
			s := f.Summary
			for _, fw := range s.forwards {
				callee := fw.call.Callee
				if callee == nil || !callee.Summary.ClosesParams[fw.argIdx] {
					continue
				}
				if !s.ClosesParams[fw.paramIdx] {
					s.ClosesParams[fw.paramIdx] = true
					changed = true
				}
			}
		}
	}
}

// TakesCtx reports whether the call's callee accepts a context.Context
// parameter — resolvable for both in-set and external callees.
func (c *Call) TakesCtx() bool {
	if c.Callee != nil {
		return c.Callee.Summary.HasCtx
	}
	if c.Obj == nil {
		return false
	}
	sig, ok := c.Obj.Type().(*types.Signature)
	if !ok {
		return false
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if isContextType(sig.Params().At(i).Type()) {
			return true
		}
	}
	return false
}

// Severs reports whether calling f without a context severs a
// cancellation chain: f (or something it reaches through in-set,
// context-free callees) invokes a context-taking function, which —
// lacking a caller context — can only have manufactured one.
// Propagation stops at context-taking callees in the chain (they
// receive whatever f passes, which the DROP rule checks separately).
func (g *Graph) Severs(f *Func) bool {
	if g.severs == nil {
		g.severs = make(map[*Func]severState)
	}
	return g.seversWalk(f)
}

type severState int

const (
	severUnknown severState = iota
	severVisiting
	severNo
	severYes
)

func (g *Graph) seversWalk(f *Func) bool {
	switch g.severs[f] {
	case severYes:
		return true
	case severNo, severVisiting: // cycles resolve to "no" conservatively
		return false
	}
	g.severs[f] = severVisiting
	result := false
	for _, c := range f.Calls {
		if c.Dynamic {
			continue
		}
		if c.TakesCtx() {
			result = true
			break
		}
		if c.Callee != nil && g.seversWalk(c.Callee) {
			result = true
			break
		}
	}
	if result {
		g.severs[f] = severYes
	} else {
		g.severs[f] = severNo
	}
	return result
}

// Visit is one step of a hot-path closure walk: Fn is the function
// being visited and Path the call chain (root first) that reached it —
// empty for the root itself.
type Visit struct {
	Fn   *Func
	Path []*Call
}

// Closure walks the static call graph from root in depth-first source
// order, visiting each reachable in-set function once with the first
// call chain that reached it. Exempt calls (error path, cap-guarded
// grow, telemetry gate) are not traversed: their targets run off the
// steady-state path. Dynamic and external calls have no body to enter;
// the analyzer inspects them at the Call level via each visited node's
// call list.
func (g *Graph) Closure(root *Func, visit func(v Visit)) {
	seen := map[*Func]bool{root: true}
	var walk func(f *Func, path []*Call)
	walk = func(f *Func, path []*Call) {
		visit(Visit{Fn: f, Path: path})
		for _, c := range f.Calls {
			if c.Exempt() || c.Callee == nil || seen[c.Callee] {
				continue
			}
			seen[c.Callee] = true
			next := make([]*Call, len(path)+1)
			copy(next, path)
			next[len(path)] = c
			walk(c.Callee, next)
		}
	}
	walk(root, nil)
}
