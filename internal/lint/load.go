package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// ErrNoGoFiles is returned by Loader.Load for directories with no non-test Go
// files (test-only packages, empty directories). Callers typically skip them.
var ErrNoGoFiles = fmt.Errorf("lint: no non-test Go files")

// Package is one loaded, type-checked package plus the lint bookkeeping the
// analyzers share: parsed //sslint: directives and an AST parent index.
type Package struct {
	ImportPath string
	Dir        string
	Fset       *token.FileSet
	Files      []*ast.File
	Pkg        *types.Package
	Info       *types.Info

	directives *directives
	parents    map[ast.Node]ast.Node
	fdecls     map[types.Object]*ast.FuncDecl // lazy; see funcDeclOf
}

// TypeOf returns the type of an expression, or nil when untyped.
func (p *Package) TypeOf(e ast.Expr) types.Type { return p.Info.TypeOf(e) }

// Parent returns the syntactic parent of a node within this package, or nil
// for file roots and foreign nodes.
func (p *Package) Parent(n ast.Node) ast.Node { return p.parents[n] }

// Position resolves a token position.
func (p *Package) Position(pos token.Pos) token.Position { return p.Fset.Position(pos) }

// Loader parses and type-checks packages. All packages loaded through one
// Loader share a FileSet and a source importer, so dependency packages are
// type-checked once per Loader regardless of how many targets import them.
type Loader struct {
	Fset *token.FileSet
	imp  types.Importer
}

// NewLoader creates a loader backed by the stdlib source importer
// (importer.ForCompiler with the "source" toolchain), which type-checks
// dependencies from source — no installed export data and no external
// analysis framework required.
func NewLoader() *Loader {
	fset := token.NewFileSet()
	return &Loader{Fset: fset, imp: importer.ForCompiler(fset, "source", nil)}
}

// Load parses every non-test Go file in dir and type-checks them as the
// package with the given import path. It returns ErrNoGoFiles when the
// directory holds no non-test Go files.
func (l *Loader) Load(dir, importPath string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("lint: %w", err)
	}
	var names []string
	for _, e := range entries {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasSuffix(n, "_test.go") ||
			strings.HasPrefix(n, ".") || strings.HasPrefix(n, "_") {
			continue
		}
		names = append(names, n)
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("%w in %s", ErrNoGoFiles, dir)
	}
	sort.Strings(names) // deterministic file order -> deterministic output
	files := make([]*ast.File, 0, len(names))
	for _, n := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, n), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: l.imp}
	pkg, err := conf.Check(importPath, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", importPath, err)
	}
	p := &Package{
		ImportPath: importPath,
		Dir:        dir,
		Fset:       l.Fset,
		Files:      files,
		Pkg:        pkg,
		Info:       info,
	}
	p.buildParents()
	p.directives = parseDirectives(p)
	return p, nil
}

// buildParents indexes every node's syntactic parent across the package's
// files, for the init() ancestry and composite-literal context checks.
func (p *Package) buildParents() {
	p.parents = make(map[ast.Node]ast.Node)
	for _, f := range p.Files {
		var stack []ast.Node
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			if len(stack) > 0 {
				p.parents[n] = stack[len(stack)-1]
			}
			stack = append(stack, n)
			return true
		})
	}
}

// funcDeclOf returns the declaration of a package-level function or method
// object, building the index lazily.
func (p *Package) funcDeclOf(obj types.Object) *ast.FuncDecl {
	if p.fdecls == nil {
		p.fdecls = map[types.Object]*ast.FuncDecl{}
		for _, f := range p.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				if o := p.Info.Defs[fd.Name]; o != nil {
					p.fdecls[o] = fd
				}
			}
		}
	}
	return p.fdecls[obj]
}
