package analysis

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
	"runtime"
	"sort"
	"strings"
)

// Package is one parsed and type-checked package ready for analysis.
type Package struct {
	Path  string // import path (testdata packages: bare directory name)
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Loader resolves, parses and type-checks packages of the enclosing
// module without shelling out to the go tool. Module-local import paths
// map onto directories via the module path in go.mod; everything else is
// delegated to the standard library's source importer, so the full
// dependency closure is resolved from GOROOT source. Build-constrained
// files (rusage_linux.go and friends) are selected through
// go/build.Context.MatchFile, mirroring what a real build would compile.
type Loader struct {
	Fset *token.FileSet

	moduleDir  string
	modulePath string
	// testdataDir, when set, is a GOPATH-style source root consulted for
	// import paths that are neither module-local nor resolvable from it —
	// the expect-comment test harness points it at testdata/src.
	testdataDir string

	std       types.Importer
	pkgs      map[string]*Package
	importing map[string]bool
	ctxt      build.Context
}

// NewLoader locates go.mod upward from dir and returns a loader rooted at
// the enclosing module.
func NewLoader(dir string) (*Loader, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	modDir := abs
	for {
		if _, err := os.Stat(filepath.Join(modDir, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(modDir)
		if parent == modDir {
			return nil, fmt.Errorf("analysis: no go.mod above %s", abs)
		}
		modDir = parent
	}
	data, err := os.ReadFile(filepath.Join(modDir, "go.mod"))
	if err != nil {
		return nil, err
	}
	modPath := ""
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			modPath = strings.Trim(strings.TrimSpace(rest), `"`)
			break
		}
	}
	if modPath == "" {
		return nil, fmt.Errorf("analysis: no module line in %s/go.mod", modDir)
	}
	fset := token.NewFileSet()
	return &Loader{
		Fset:       fset,
		moduleDir:  modDir,
		modulePath: modPath,
		std:        importer.ForCompiler(fset, "source", nil),
		pkgs:       make(map[string]*Package),
		importing:  make(map[string]bool),
		ctxt:       build.Default,
	}, nil
}

// SetTestdataRoot installs a GOPATH-style extra source root (the test
// harness's testdata/src), letting testdata packages import sibling fakes
// by bare path.
func (l *Loader) SetTestdataRoot(dir string) error {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return err
	}
	l.testdataDir = abs
	return nil
}

// SetBuildContext pins the build-constraint environment used to select
// files (GOOS/GOARCH and -tags), overriding the host defaults. The test
// harness uses it to make build-tag-filtered testdata packages behave
// identically on every platform. Empty strings keep the host value.
func (l *Loader) SetBuildContext(goos, goarch string, tags []string) {
	if goos != "" {
		l.ctxt.GOOS = goos
	}
	if goarch != "" {
		l.ctxt.GOARCH = goarch
	}
	if tags != nil {
		l.ctxt.BuildTags = tags
	}
}

// Program returns the whole-program view over every package this loader
// has materialized so far (the requested packages plus their module-
// local and testdata dependency closure). Call it after loading.
func (l *Loader) Program() *Program {
	pkgs := make([]*Package, 0, len(l.pkgs))
	for _, p := range l.pkgs {
		pkgs = append(pkgs, p)
	}
	return NewProgram(l.Fset, pkgs)
}

// dirFor maps an import path to a directory, reporting whether this
// loader owns the path (false means: delegate to the stdlib importer).
func (l *Loader) dirFor(path string) (string, bool) {
	if path == l.modulePath {
		return l.moduleDir, true
	}
	if rest, ok := strings.CutPrefix(path, l.modulePath+"/"); ok {
		return filepath.Join(l.moduleDir, filepath.FromSlash(rest)), true
	}
	if l.testdataDir != "" {
		dir := filepath.Join(l.testdataDir, filepath.FromSlash(path))
		if st, err := os.Stat(dir); err == nil && st.IsDir() {
			return dir, true
		}
	}
	return "", false
}

// Expand resolves package patterns against the module. A pattern ending
// in "/..." walks the subtree rooted at the prefix (skipping testdata,
// vendor and hidden directories); other patterns name a single directory.
// Relative patterns are resolved against base. Only directories holding
// at least one buildable non-test .go file are returned, as sorted import
// paths.
func (l *Loader) Expand(base string, patterns []string) ([]string, error) {
	seen := make(map[string]bool)
	var out []string
	add := func(dir string) error {
		files, err := l.sourceFiles(dir)
		if err != nil || len(files) == 0 {
			return nil // not a package directory; walkers skip silently
		}
		path, err := l.importPathFor(dir)
		if err != nil {
			return err
		}
		if !seen[path] {
			seen[path] = true
			out = append(out, path)
		}
		return nil
	}
	for _, pat := range patterns {
		recursive := false
		if strings.HasSuffix(pat, "/...") {
			recursive = true
			pat = strings.TrimSuffix(pat, "/...")
			if pat == "." || pat == "" {
				pat = "."
			}
		}
		dir := pat
		if !filepath.IsAbs(dir) {
			dir = filepath.Join(base, filepath.FromSlash(pat))
		}
		if !recursive {
			if err := add(dir); err != nil {
				return nil, err
			}
			continue
		}
		err := filepath.WalkDir(dir, func(p string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if p != dir && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return add(p)
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(out)
	return out, nil
}

// importPathFor inverts dirFor for directories inside the module.
func (l *Loader) importPathFor(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	if abs == l.moduleDir {
		return l.modulePath, nil
	}
	rel, err := filepath.Rel(l.moduleDir, abs)
	if err != nil || strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("analysis: %s is outside module %s", dir, l.modulePath)
	}
	return l.modulePath + "/" + filepath.ToSlash(rel), nil
}

// sourceFiles returns the buildable non-test .go files of dir, in name
// order.
func (l *Loader) sourceFiles(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		ok, err := l.ctxt.MatchFile(dir, name)
		if err != nil {
			return nil, fmt.Errorf("analysis: %s: %w", filepath.Join(dir, name), err)
		}
		if ok {
			files = append(files, filepath.Join(dir, name))
		}
	}
	sort.Strings(files)
	return files, nil
}

// Load parses and type-checks the package at the given import path
// (module-local or under the testdata root). Results are memoized.
func (l *Loader) Load(path string) (*Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	dir, ok := l.dirFor(path)
	if !ok {
		return nil, fmt.Errorf("analysis: %s is not a loadable package path", path)
	}
	if l.importing[path] {
		return nil, fmt.Errorf("analysis: import cycle through %s", path)
	}
	l.importing[path] = true
	defer delete(l.importing, path)

	names, err := l.sourceFiles(dir)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("analysis: no buildable Go files in %s", dir)
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	cfg := types.Config{
		Importer: l,
		Sizes:    types.SizesFor("gc", runtime.GOARCH),
	}
	tpkg, err := cfg.Check(path, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", path, err)
	}
	p := &Package{Path: path, Dir: dir, Fset: l.Fset, Files: files, Types: tpkg, Info: info}
	l.pkgs[path] = p
	return p, nil
}

// Import implements types.Importer so analyzed packages can depend on
// module-local and testdata packages (loaded recursively from source
// here) and on the standard library (delegated to the source importer).
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if _, ok := l.dirFor(path); ok {
		p, err := l.Load(path)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return l.std.Import(path)
}
