package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// Loader parses and type-checks packages of this module without external
// tooling: module-internal imports resolve against the module directory,
// everything else against GOROOT/src (with the stdlib vendor directory as
// fallback). Imported dependencies are checked without function bodies —
// only their exported shape matters to the analyzers — and cached, so
// loading every package of the repository type-checks each dependency
// once.
type Loader struct {
	// Fset is shared by every file the loader touches.
	Fset *token.FileSet

	moduleDir  string
	modulePath string
	deps       map[string]*types.Package
	loading    map[string]bool
}

// NewLoader builds a loader rooted at the module directory, reading the
// module path from go.mod.
func NewLoader(moduleDir string) (*Loader, error) {
	data, err := os.ReadFile(filepath.Join(moduleDir, "go.mod"))
	if err != nil {
		return nil, fmt.Errorf("lint: reading go.mod: %w", err)
	}
	modPath := ""
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			modPath = strings.TrimSpace(rest)
			break
		}
	}
	if modPath == "" {
		return nil, fmt.Errorf("lint: no module directive in %s/go.mod", moduleDir)
	}
	return &Loader{
		Fset:       token.NewFileSet(),
		moduleDir:  moduleDir,
		modulePath: modPath,
		deps:       make(map[string]*types.Package),
		loading:    make(map[string]bool),
	}, nil
}

// dirFor maps an import path to the directory holding its sources.
func (l *Loader) dirFor(path string) (string, error) {
	if path == l.modulePath {
		return l.moduleDir, nil
	}
	if rest, ok := strings.CutPrefix(path, l.modulePath+"/"); ok {
		return filepath.Join(l.moduleDir, filepath.FromSlash(rest)), nil
	}
	root := runtime.GOROOT()
	dir := filepath.Join(root, "src", filepath.FromSlash(path))
	if _, err := os.Stat(dir); err == nil {
		return dir, nil
	}
	vendored := filepath.Join(root, "src", "vendor", filepath.FromSlash(path))
	if _, err := os.Stat(vendored); err == nil {
		return vendored, nil
	}
	return "", fmt.Errorf("lint: cannot resolve import %q", path)
}

// Import implements types.Importer: dependencies are type-checked from
// source without function bodies.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if pkg, ok := l.deps[path]; ok {
		return pkg, nil
	}
	// A package re-entered before its own check finished can only mean a
	// cyclic import chain; without this guard the importer would recurse
	// until the stack blows.
	if l.loading[path] {
		return nil, fmt.Errorf("lint: import cycle through %q", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)
	dir, err := l.dirFor(path)
	if err != nil {
		return nil, err
	}
	files, err := l.parseDir(dir)
	if err != nil {
		return nil, fmt.Errorf("lint: parsing dependency %s: %w", path, err)
	}
	conf := types.Config{
		Importer:         l,
		IgnoreFuncBodies: true,
		FakeImportC:      true,
	}
	pkg, err := conf.Check(path, l.Fset, files, nil)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking dependency %s: %w", path, err)
	}
	l.deps[path] = pkg
	return pkg, nil
}

// parseDir parses the non-test Go files of one directory, respecting
// build constraints for the current platform.
func (l *Loader) parseDir(dir string) ([]*ast.File, error) {
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	names := append([]string(nil), bp.GoFiles...)
	names = append(names, bp.CgoFiles...)
	sort.Strings(names)
	files := make([]*ast.File, 0, len(names))
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// LoadDir fully type-checks the package in dir (function bodies included)
// and returns it as an analysis Pass. The package's import path is derived
// from its location under the module root.
func (l *Loader) LoadDir(dir string) (*Pass, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	rel, err := filepath.Rel(l.moduleDir, abs)
	if err != nil {
		return nil, err
	}
	path := l.modulePath
	if rel != "." {
		path = l.modulePath + "/" + filepath.ToSlash(rel)
	}
	files, err := l.parseDir(abs)
	if err != nil {
		return nil, fmt.Errorf("lint: parsing %s: %w", path, err)
	}
	// Guard the target package too: a dependency importing it back is a
	// cycle, not a reason to re-check the target as its own dependency.
	l.loading[path] = true
	defer delete(l.loading, path)
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	conf := types.Config{Importer: l, FakeImportC: true}
	pkg, err := conf.Check(path, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", path, err)
	}
	return &Pass{Path: path, Fset: l.Fset, Files: files, Pkg: pkg, Info: info}, nil
}

// Target is one lintable package directory of the module.
type Target struct {
	// Dir is the package directory (absolute).
	Dir string
	// Path is the package's import path.
	Path string
	// Imports are the package's direct imports (from file headers, no
	// type-checking), so drivers can skip loading packages no analyzer
	// cares about.
	Imports []string
}

// Targets enumerates every package directory of the module, skipping
// testdata, hidden directories, and directories without buildable Go
// files.
func (l *Loader) Targets() ([]Target, error) {
	var out []Target
	err := filepath.WalkDir(l.moduleDir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != l.moduleDir && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		bp, err := build.ImportDir(path, 0)
		if err != nil {
			if _, ok := err.(*build.NoGoError); ok {
				return nil
			}
			return err
		}
		rel, err := filepath.Rel(l.moduleDir, path)
		if err != nil {
			return err
		}
		imp := l.modulePath
		if rel != "." {
			imp = l.modulePath + "/" + filepath.ToSlash(rel)
		}
		out = append(out, Target{Dir: path, Path: imp, Imports: bp.Imports})
		return nil
	})
	return out, err
}
