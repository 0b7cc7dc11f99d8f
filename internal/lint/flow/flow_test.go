package flow

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"
)

// checkPkg type-checks a single synthetic source file into a
// PackageInfo, the same surface the lint loader hands Build.
func checkPkg(t *testing.T, path, src string) *PackageInfo {
	t.Helper()
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, path+"/x.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info := &types.Info{
		Types: make(map[ast.Expr]types.TypeAndValue),
		Defs:  make(map[*ast.Ident]types.Object),
		Uses:  make(map[*ast.Ident]types.Object),
	}
	conf := types.Config{Importer: importer.Default()}
	pkg, err := conf.Check(path, fset, []*ast.File{file}, info)
	if err != nil {
		t.Fatalf("typecheck: %v", err)
	}
	return &PackageInfo{Path: path, Fset: fset, Files: []*ast.File{file}, Pkg: pkg, Info: info}
}

func findFunc(t *testing.T, g *Graph, short string) *Func {
	t.Helper()
	for _, f := range sortedFuncs(g) {
		if strings.HasSuffix(f.Key, short) {
			return f
		}
	}
	t.Fatalf("function %q not in graph (have %d funcs)", short, len(g.Funcs))
	return nil
}

func allocKinds(f *Func, exempt bool) []AllocKind {
	var out []AllocKind
	for _, a := range f.Summary.Allocs {
		if a.Exempt() == exempt {
			out = append(out, a.Kind)
		}
	}
	return out
}

func TestSummaryAllocClassification(t *testing.T) {
	pkg := checkPkg(t, "example.com/p", `package p

import "fmt"

type T struct{ n int }

// Steady-state allocations of every intrinsic kind.
func allocs(s string, xs []int) interface{} {
	m := make(map[string]int)      // make
	p := new(T)                    // new
	ys := append(xs, 1)            // append into caller's slice: may grow
	lit := &T{n: 1}                // escaping composite literal
	sl := []int{1, 2}              // slice literal
	cat := s + s                   // non-constant concat
	bs := []byte(s)                // allocating conversion
	_ = m
	_ = p
	_ = ys
	_ = sl
	_ = cat
	_ = bs
	return lit
}

// The amortized reuse idioms must not count.
func reuse(buf []byte, s string) []byte {
	buf = append(buf, s...)        // self-append: sanctioned
	if cap(buf) < 64 {
		buf = make([]byte, 0, 64)  // cap-guarded grow: exempt
	}
	return append(buf, '!')        // param-return append: sanctioned
}

// Allocations whose path ends in an error return are exempt; the same
// construct at top level is not.
func errPath(n int) ([]int, error) {
	if n < 0 {
		return nil, fmt.Errorf("negative %d", n)
	}
	out := make([]int, n)
	return out, nil
}
`)
	g := Build([]*PackageInfo{pkg})

	f := findFunc(t, g, "p.allocs")
	got := allocKinds(f, false)
	want := []AllocKind{AllocMake, AllocNew, AllocAppend, AllocLit, AllocLit, AllocConcat, AllocConversion}
	if len(got) != len(want) {
		t.Fatalf("allocs: got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("allocs[%d] = %v, want %v", i, got[i], want[i])
		}
	}

	if f := findFunc(t, g, "p.reuse"); len(allocKinds(f, false)) != 0 {
		t.Errorf("reuse: non-exempt allocs %v, want none", allocKinds(f, false))
	}

	f = findFunc(t, g, "p.errPath")
	if n := len(allocKinds(f, false)); n != 1 {
		// Only the top-level make counts; the fmt.Errorf boxing sits on
		// the error path.
		t.Errorf("errPath: %d non-exempt allocs, want 1 (the top-level make)", n)
	}
}

func TestCallGraphAndClosure(t *testing.T) {
	pkg := checkPkg(t, "example.com/q", `package q

//lint:hotpath
func root() int { return helper() + helper2() }

func helper() int { return leaf() }

func helper2() int { return 2 }

func leaf() int {
	xs := make([]int, 4)
	return len(xs)
}
`)
	g := Build([]*PackageInfo{pkg})

	root := findFunc(t, g, "q.root")
	if !root.Summary.Hotpath {
		t.Fatal("root: //lint:hotpath not detected")
	}
	var visited []string
	g.Closure(root, func(v Visit) { visited = append(visited, v.Fn.Summary.ShortName) })
	want := "q.root q.helper q.leaf q.helper2"
	if got := strings.Join(visited, " "); got != want {
		t.Errorf("closure order: %q, want %q", got, want)
	}
	// leaf's make must be reachable with a two-call path.
	leaf := findFunc(t, g, "q.leaf")
	if n := len(allocKinds(leaf, false)); n != 1 {
		t.Fatalf("leaf: %d allocs, want 1", n)
	}
}

func TestCrossPackageKeying(t *testing.T) {
	// The same function seen as a dependency and as an analyzed package
	// must resolve to one node: simulate by building a graph over two
	// independently checked views that call across by name.
	lib := checkPkg(t, "example.com/lib", `package lib

func Grow(xs []int) []int { return append(xs, make([]int, 8)...) }
`)
	g := Build([]*PackageInfo{lib})
	f := findFunc(t, g, "lib.Grow")
	if f.Key != "example.com/lib.Grow" {
		t.Errorf("key = %q", f.Key)
	}
	if g.FuncOf(f.Obj) != f {
		t.Error("FuncOf does not round-trip")
	}
}

func TestSeversAndFacade(t *testing.T) {
	pkg := checkPkg(t, "example.com/s", `package s

import "context"

func blockingCtx(ctx context.Context) { <-ctx.Done() }

// severs: calls a ctx-taking function without having a ctx to give it.
func severs() { blockingCtx(context.TODO()) }

// indirect: severs through an in-set chain.
func indirect() { severs() }

// facade is a context-free compat wrapper; there is no annotation that
// makes it a context boundary.
func facade() { severs() }

// throughFacade severs through the wrapper like any other chain.
func throughFacade() { facade() }

func pure(x int) int { return x * 2 }

func clean() int { return pure(3) }
`)
	g := Build([]*PackageInfo{pkg})

	cases := []struct {
		name string
		want bool
	}{
		{"s.severs", true},
		{"s.indirect", true},
		{"s.facade", true},
		{"s.throughFacade", true},
		{"s.clean", false},
	}
	for _, c := range cases {
		f := findFunc(t, g, c.name)
		if got := g.Severs(f); got != c.want {
			t.Errorf("Severs(%s) = %v, want %v", c.name, got, c.want)
		}
	}

	sev := findFunc(t, g, "s.severs")
	if len(sev.Summary.BackgroundCalls) != 1 {
		t.Errorf("severs: %d Background/TODO calls recorded, want 1", len(sev.Summary.BackgroundCalls))
	}
}

func TestClosesParamsFixpoint(t *testing.T) {
	pkg := checkPkg(t, "example.com/c", `package c

import "os"

func closeDirect(f *os.File) { f.Close() }

func closeForwarded(f *os.File) { closeDirect(f) }

func closeTwoHops(f *os.File) { closeForwarded(f) }

func leaves(f *os.File) { _ = f.Name() }
`)
	g := Build([]*PackageInfo{pkg})

	for name, want := range map[string]bool{
		"c.closeDirect":    true,
		"c.closeForwarded": true,
		"c.closeTwoHops":   true,
		"c.leaves":         false,
	} {
		f := findFunc(t, g, name)
		if got := f.Summary.ClosesParams[0]; got != want {
			t.Errorf("ClosesParams[0] of %s = %v, want %v", name, got, want)
		}
	}
}

func TestClosureAndBoxing(t *testing.T) {
	pkg := checkPkg(t, "example.com/b", `package b

type iface interface{ M() }
type val struct{ n int }

func (v val) M() {}

func takesIface(i iface) { i.M() }

// Boxing: value type into interface parameter.
func boxes(v val) { takesIface(v) }

// No boxing: pointer receiver value is already a single word.
func noBox(v *val) { takesIface(v) }

// A capture-free comparator assigned to a local and called directly
// does not allocate.
func localClosure(xs []int) int {
	double := func(x int) int { return x * 2 }
	return double(xs[0])
}

// A capturing literal passed as an argument escapes.
func escaping(xs []int) {
	total := 0
	walk(func(x int) { total += x }, xs)
}

func walk(f func(int), xs []int) {
	for _, x := range xs {
		f(x)
	}
}
`)
	g := Build([]*PackageInfo{pkg})

	if f := findFunc(t, g, "b.boxes"); len(allocKinds(f, false)) != 1 {
		t.Errorf("boxes: allocs %v, want one boxing site", allocKinds(f, false))
	}
	if f := findFunc(t, g, "b.noBox"); len(allocKinds(f, false)) != 0 {
		t.Errorf("noBox: allocs %v, want none", allocKinds(f, false))
	}
	if f := findFunc(t, g, "b.localClosure"); len(allocKinds(f, false)) != 0 {
		t.Errorf("localClosure: allocs %v, want none", allocKinds(f, false))
	}
	f := findFunc(t, g, "b.escaping")
	kinds := allocKinds(f, false)
	if len(kinds) != 1 || kinds[0] != AllocClosure {
		t.Errorf("escaping: allocs %v, want one closure", kinds)
	}
}

func TestExternalClassify(t *testing.T) {
	pkg := checkPkg(t, "example.com/e", `package e

import (
	"fmt"
	"strconv"
	"strings"
)

func uses(b []byte, s string) []byte {
	if strings.HasPrefix(s, "x") {
		b = strconv.AppendInt(b, 42, 10)
	}
	fmt.Println(s)
	return b
}
`)
	g := Build([]*PackageInfo{pkg})
	f := findFunc(t, g, "e.uses")

	classes := map[string]ExtClass{}
	for _, c := range f.Calls {
		if c.Obj != nil {
			classes[c.Obj.Pkg().Path()+"."+c.Obj.Name()] = Classify(c.Obj)
		}
	}
	if classes["strings.HasPrefix"] != ExtSafe {
		t.Errorf("strings.HasPrefix: %v, want safe", classes["strings.HasPrefix"])
	}
	if classes["strconv.AppendInt"] != ExtSafe {
		t.Errorf("strconv.AppendInt: %v, want safe", classes["strconv.AppendInt"])
	}
	if classes["fmt.Println"] != ExtAlloc {
		t.Errorf("fmt.Println: %v, want alloc", classes["fmt.Println"])
	}
}
