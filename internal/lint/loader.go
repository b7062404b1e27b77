package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one parsed and type-checked package, the unit the
// analyzers run over.
type Package struct {
	// Path is the import path the package was loaded under.
	Path string
	// Name is the package clause name.
	Name string
	// Dir is the directory the files came from.
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Loader parses and type-checks packages without golang.org/x/tools:
// module-local import paths are resolved to directories and
// type-checked from source recursively; everything else (the standard
// library) goes through go/importer's source importer. One Loader
// memoizes dependency packages across Load calls, so loading a whole
// tree type-checks each dependency once.
//
// Build constraints are honored for the host configuration (go/build's
// default context): of a constrained pair like internal/report's
// decode_zerocopy.go / decode_purego.go, exactly the file the compiler
// would build joins the package, so platform variants never collide in
// one type-check universe. Test files are only included where Load is told to include
// them, never in dependencies.
type Loader struct {
	Fset *token.FileSet

	module string // module import path, "" when unset
	moddir string // module root directory
	srcdir string // catch-all source root (linttest suites), "" when unset

	std  types.ImporterFrom
	deps map[string]*types.Package
}

// inProgress marks a dependency currently being type-checked, for
// import-cycle detection.
var inProgress = types.NewPackage("chaffvet/in-progress", "in_progress")

// NewLoader returns a Loader that resolves only standard-library
// imports; add module or source-root resolution with SetModule /
// SetSourceRoot.
func NewLoader() *Loader {
	fset := token.NewFileSet()
	return &Loader{
		Fset: fset,
		std:  importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		deps: map[string]*types.Package{},
	}
}

// SetModule makes import paths under the module path resolve into the
// module root directory.
func (l *Loader) SetModule(path, dir string) { l.module, l.moddir = path, dir }

// SetSourceRoot makes any import path whose directory exists under root
// resolve there (the analysistest-style layout: root/<import/path>/*.go).
// Module resolution takes precedence.
func (l *Loader) SetSourceRoot(root string) { l.srcdir = root }

// FindModule walks up from dir to the enclosing go.mod and returns the
// module path and root directory.
func FindModule(dir string) (path, root string, err error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for d := abs; ; {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return strings.TrimSpace(rest), d, nil
				}
			}
			return "", "", fmt.Errorf("lint: %s/go.mod has no module line", d)
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", "", fmt.Errorf("lint: no go.mod above %s", abs)
		}
		d = parent
	}
}

// resolveDir maps an import path to a local source directory, or
// ok=false for paths the source importer should handle (stdlib).
func (l *Loader) resolveDir(path string) (string, bool) {
	if l.module != "" {
		if path == l.module {
			return l.moddir, true
		}
		if rest, ok := strings.CutPrefix(path, l.module+"/"); ok {
			return filepath.Join(l.moddir, filepath.FromSlash(rest)), true
		}
	}
	if l.srcdir != "" {
		dir := filepath.Join(l.srcdir, filepath.FromSlash(path))
		if st, err := os.Stat(dir); err == nil && st.IsDir() {
			return dir, true
		}
	}
	return "", false
}

// Import implements types.Importer for dependency resolution.
func (l *Loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, l.moddir, 0)
}

// ImportFrom implements types.ImporterFrom: local packages are
// type-checked from source (non-test files only) and memoized, other
// paths delegate to the standard library's source importer.
func (l *Loader) ImportFrom(path, srcDir string, mode types.ImportMode) (*types.Package, error) {
	dir, local := l.resolveDir(path)
	if !local {
		return l.std.ImportFrom(path, srcDir, mode)
	}
	if p, ok := l.deps[path]; ok {
		if p == inProgress {
			return nil, fmt.Errorf("lint: import cycle through %q", path)
		}
		return p, nil
	}
	l.deps[path] = inProgress
	files, err := goFilesIn(dir, false)
	if err != nil {
		delete(l.deps, path)
		return nil, err
	}
	pkg, err := l.check(path, dir, files)
	if err != nil {
		delete(l.deps, path)
		return nil, err
	}
	l.deps[path] = pkg.Types
	return pkg.Types, nil
}

// Load parses and type-checks the given files as one package under the
// given import path. The file list is explicit so callers (cmd/chaffvet
// from `go list -json`, tests from directory globs) control exactly
// which test files join the package.
func (l *Loader) Load(path, dir string, files []string) (*Package, error) {
	return l.check(path, dir, files)
}

// LoadDir loads the package in dir under the given import path,
// optionally including its in-package _test.go files. External test
// packages (package foo_test files) are always excluded here; load them
// separately under path+"_test" with Load.
func (l *Loader) LoadDir(path, dir string, includeTests bool) (*Package, error) {
	files, err := goFilesIn(dir, includeTests)
	if err != nil {
		return nil, err
	}
	if includeTests {
		// Drop external-test-package files: they do not join this
		// package's type-check universe.
		kept := files[:0]
		for _, f := range files {
			if name, err := packageClause(filepath.Join(dir, f)); err != nil {
				return nil, err
			} else if !strings.HasSuffix(name, "_test") {
				kept = append(kept, f)
			}
		}
		files = kept
	}
	return l.check(path, dir, files)
}

// LoadExternalTests loads dir's package foo_test files (if any) as
// their own package under path+"_test". It returns (nil, nil) when the
// directory has none.
func (l *Loader) LoadExternalTests(path, dir string) (*Package, error) {
	all, err := goFilesIn(dir, true)
	if err != nil {
		return nil, err
	}
	var files []string
	for _, f := range all {
		name, err := packageClause(filepath.Join(dir, f))
		if err != nil {
			return nil, err
		}
		if strings.HasSuffix(name, "_test") {
			files = append(files, f)
		}
	}
	if len(files) == 0 {
		return nil, nil
	}
	return l.check(path+"_test", dir, files)
}

// check parses files and runs the type checker, collecting Info.
func (l *Loader) check(path, dir string, files []string) (*Package, error) {
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: package %s: no Go files", path)
	}
	var asts []*ast.File
	name := ""
	for _, fname := range files {
		full := fname
		if !filepath.IsAbs(full) {
			full = filepath.Join(dir, fname)
		}
		f, err := parser.ParseFile(l.Fset, full, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: parsing %s: %w", full, err)
		}
		if name == "" {
			name = f.Name.Name
		} else if f.Name.Name != name {
			return nil, fmt.Errorf("lint: package %s: mixed package clauses %q and %q (load external test packages separately)",
				path, name, f.Name.Name)
		}
		asts = append(asts, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	var terrs []error
	cfg := &types.Config{
		Importer: l,
		Error:    func(err error) { terrs = append(terrs, err) },
	}
	tpkg, err := cfg.Check(path, l.Fset, asts, info)
	if len(terrs) > 0 {
		const show = 5
		msgs := make([]string, 0, show)
		for i, e := range terrs {
			if i == show {
				msgs = append(msgs, fmt.Sprintf("... and %d more", len(terrs)-show))
				break
			}
			msgs = append(msgs, e.Error())
		}
		return nil, fmt.Errorf("lint: type-checking %s:\n\t%s", path, strings.Join(msgs, "\n\t"))
	}
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", path, err)
	}
	return &Package{
		Path:  path,
		Name:  name,
		Dir:   dir,
		Fset:  l.Fset,
		Files: asts,
		Types: tpkg,
		Info:  info,
	}, nil
}

// goFilesIn lists dir's .go file names (sorted, dir-relative),
// optionally including _test.go files. Files whose build constraints
// (//go:build lines or GOOS/GOARCH name suffixes) exclude the host
// configuration are skipped, exactly as the compiler would skip them.
func goFilesIn(dir string, includeTests bool) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasPrefix(name, ".") {
			continue
		}
		if !includeTests && strings.HasSuffix(name, "_test.go") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil {
			return nil, fmt.Errorf("lint: %s: %w", filepath.Join(dir, name), err)
		} else if !ok {
			continue
		}
		out = append(out, name)
	}
	sort.Strings(out)
	return out, nil
}

// packageClause parses just the package clause of a file.
func packageClause(file string) (string, error) {
	f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.PackageClauseOnly)
	if err != nil {
		return "", err
	}
	return f.Name.Name, nil
}
