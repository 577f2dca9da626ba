package agilewatts

// TestInternalDeclarationsReachable keeps internal/ free of code that no
// program runs. It parses every non-test Go file in the repository
// (bench/ included) and walks identifier references outward from the
// roots: every declaration of the root package and of the packages under
// cmd/, examples/ and bench/. An internal/ declaration the walk never
// reaches fails the test by name unless the checked-in allowlist keeps
// it, with a reason. Adding an exported function to an internal package
// that no program calls therefore fails here: call it, delete it, or
// allowlist it.
//
// The walk is by name, so it over-approximates: a method counts as
// reached when its receiver type is reached and some reached code
// selects a member of that name (x.M on any x), or when it is one the
// standard library calls through an interface (String, Error,
// MarshalJSON, ...). A const group counts as one declaration, so an
// iota enum is reached through any of its members. What an allowlisted
// declaration uses counts as kept with it.

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

const reachAllowlistPath = "testdata/reach_allowlist.txt"

// stdlibCalled names methods the standard library calls through an
// interface (fmt, errors, encoding/json, encoding, sort, container/heap,
// io, net/http), so no selector in this repository need name them.
var stdlibCalled = map[string]bool{
	"String": true, "GoString": true, "Format": true, "Error": true,
	"Unwrap": true, "Is": true, "As": true,
	"MarshalJSON": true, "UnmarshalJSON": true,
	"MarshalText": true, "UnmarshalText": true,
	"MarshalBinary": true, "UnmarshalBinary": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"Read": true, "Write": true, "Close": true, "ServeHTTP": true,
}

func TestInternalDeclarationsReachable(t *testing.T) {
	g := parseRepo(t)
	allow := readReachAllowlist(t)
	reached := g.reach(g.roots)
	// What a kept declaration uses is kept with it.
	kept := g.reach(append(allow, g.roots...))

	var unreached []string
	for key, d := range g.decls {
		if !kept[key] && strings.HasPrefix(d.pkg, "internal/") {
			unreached = append(unreached, key)
		}
	}
	sort.Strings(unreached)
	for _, key := range unreached {
		t.Errorf("no program reaches %s: call it, delete it, or add it to %s with a reason", key, reachAllowlistPath)
	}
	for _, key := range allow {
		switch {
		case g.decls[key] == nil:
			t.Errorf("%s lists %s, which is not declared", reachAllowlistPath, key)
		case reached[key]:
			t.Errorf("%s lists %s, which a program reaches: drop the entry", reachAllowlistPath, key)
		}
	}
}

// readReachAllowlist returns the keys of the allowlist's "key reason..."
// lines; # starts a comment.
func readReachAllowlist(t *testing.T) []string {
	t.Helper()
	data, err := os.ReadFile(reachAllowlistPath)
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key, reason, _ := strings.Cut(line, " ")
		if strings.TrimSpace(reason) == "" {
			t.Errorf("%s: %s has no reason", reachAllowlistPath, key)
		}
		keys = append(keys, key)
	}
	return keys
}

// reachDecl is one declaration: a func, a method, a type, a var, or a
// whole const group. Its key is "pkg.Name" or "pkg.Type.Method", with
// pkg the import path minus the module prefix ("internal/stats").
type reachDecl struct {
	pkg     string
	recv    string // receiver type name, for methods
	name    string
	node    ast.Node
	imports map[string]string // file-local package name -> pkg
}

type reachGraph struct {
	decls   map[string]*reachDecl
	byName  map[string]string   // "pkg.Name" -> key (const group members share one)
	methods map[string][]string // "pkg.Type" -> method keys
	roots   []string
}

// parseRepo parses every non-test Go file under the repository root.
func parseRepo(t *testing.T) *reachGraph {
	t.Helper()
	g := &reachGraph{decls: map[string]*reachDecl{}, byName: map[string]string{}, methods: map[string][]string{}}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := e.Name()
		if e.IsDir() {
			if path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		g.addFile(filepath.ToSlash(filepath.Dir(path)), f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// modulePkg maps an import path of either module (repro, repro/bench)
// to its directory relative to the repository root.
func modulePkg(importPath string) (string, bool) {
	if importPath == "repro" {
		return ".", true
	}
	rel, ok := strings.CutPrefix(importPath, "repro/")
	return rel, ok
}

func (g *reachGraph) addFile(pkg string, f *ast.File) {
	imports := map[string]string{}
	for _, spec := range f.Imports {
		rel, ok := modulePkg(strings.Trim(spec.Path.Value, `"`))
		if !ok {
			continue
		}
		local := filepath.Base(rel)
		if spec.Name != nil {
			local = spec.Name.Name
		}
		imports[local] = rel
	}
	root := pkg == "." || !strings.HasPrefix(pkg, "internal/")
	add := func(d *reachDecl, names ...string) {
		key := pkg + "." + d.name
		if d.recv != "" {
			key = pkg + "." + d.recv + "." + d.name
			g.methods[pkg+"."+d.recv] = append(g.methods[pkg+"."+d.recv], key)
		}
		for _, n := range names {
			g.byName[pkg+"."+n] = key
		}
		g.decls[key] = d
		if root || strings.HasPrefix(key, pkg+".init#") {
			g.roots = append(g.roots, key)
		}
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			rd := &reachDecl{pkg: pkg, name: d.Name.Name, node: d, imports: imports}
			switch {
			case d.Recv != nil:
				rd.recv = recvTypeName(d.Recv.List[0].Type)
				add(rd)
			case d.Name.Name == "init":
				// A package may have several; each is a root.
				rd.name = fmt.Sprintf("init#%d", len(g.decls))
				add(rd)
			default:
				add(rd, d.Name.Name)
			}
		case *ast.GenDecl:
			if d.Tok == token.IMPORT {
				continue
			}
			if d.Tok == token.CONST && d.Lparen.IsValid() {
				var names []string
				for _, s := range d.Specs {
					for _, n := range s.(*ast.ValueSpec).Names {
						names = append(names, n.Name)
					}
				}
				add(&reachDecl{pkg: pkg, name: names[0], node: d, imports: imports}, names...)
				continue
			}
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					add(&reachDecl{pkg: pkg, name: s.Name.Name, node: s, imports: imports}, s.Name.Name)
				case *ast.ValueSpec:
					for _, n := range s.Names {
						if n.Name != "_" {
							add(&reachDecl{pkg: pkg, name: n.Name, node: s, imports: imports}, n.Name)
						}
					}
				}
			}
		}
	}
}

func recvTypeName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			panic("unexpected receiver type")
		}
	}
}

// reach walks from roots to a fixed point and returns the reached keys.
func (g *reachGraph) reach(roots []string) map[string]bool {
	reached := map[string]bool{}
	selected := map[string]bool{} // every name reached code selects (x.Name)
	var work []string
	mark := func(key string) {
		if g.decls[key] != nil && !reached[key] {
			reached[key] = true
			work = append(work, key)
		}
	}
	for _, key := range roots {
		mark(key)
	}
	for len(work) > 0 {
		for len(work) > 0 {
			key := work[len(work)-1]
			work = work[:len(work)-1]
			d := g.decls[key]
			var visit func(ast.Node) bool
			visit = func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					// pkg.Name; a local variable that shadows an import
					// falls through to a member selection.
					if id, ok := n.X.(*ast.Ident); ok {
						if key := g.byName[d.imports[id.Name]+"."+n.Sel.Name]; key != "" {
							mark(key)
							return false
						}
					}
					selected[n.Sel.Name] = true
					ast.Inspect(n.X, visit)
					return false
				case *ast.Ident:
					mark(g.byName[d.pkg+"."+n.Name])
				}
				return true
			}
			ast.Inspect(d.node, visit)
		}
		// A method is reached once its type is and its name is selected
		// (or the standard library calls it).
		for typ, keys := range g.methods {
			if !reached[g.byName[typ]] {
				continue
			}
			for _, key := range keys {
				if name := g.decls[key].name; selected[name] || stdlibCalled[name] {
					mark(key)
				}
			}
		}
	}
	return reached
}
