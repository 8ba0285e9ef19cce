package greenlint

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

// Package is one parsed, type-checked compilation unit. A directory
// holds up to two units: the base package (non-test files plus
// in-package _test files, the unit `go test` compiles) and an external
// _test package. Both carry the directory's import path so
// path-conditional checks (globalrand's internal/... scope) treat them
// alike.
type Package struct {
	Path  string // import path, e.g. repro/internal/bench
	Dir   string
	Name  string // package name, e.g. bench or bench_test
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
	// TypeErrors collects non-fatal checker errors. Analysis still runs
	// on whatever was resolved; the driver surfaces these as warnings.
	TypeErrors []error
}

// Load parses and type-checks every package matched by patterns.
// Patterns are plain directories ("./internal/bench") or recursive
// wildcards ("./..."), resolved like the go tool: testdata, hidden, and
// underscore-prefixed directories are skipped by wildcards, and so is
// any directory below the wildcard root holding its own go.mod — a
// nested module, which is not part of this one. The loader
// is stdlib-only — imports resolve through go/importer's source
// importer, so no binary export data or external module is needed.
func Load(fset *token.FileSet, patterns []string) ([]*Package, error) {
	modRoot, modPath, err := findModule()
	if err != nil {
		return nil, err
	}
	dirs, err := expandPatterns(patterns)
	if err != nil {
		return nil, err
	}
	imp := importer.ForCompiler(fset, "source", nil)
	var pkgs []*Package
	for _, dir := range dirs {
		units, err := parseDir(fset, dir, modRoot, modPath)
		if err != nil {
			return nil, err
		}
		for _, u := range units {
			check(fset, imp, u)
			pkgs = append(pkgs, u)
		}
	}
	return pkgs, nil
}

// findModule walks up from the working directory to go.mod and returns
// the module root and module path.
func findModule() (root, path string, err error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
					return dir, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("greenlint: no module line in %s/go.mod", dir)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", "", fmt.Errorf("greenlint: no go.mod found above working directory")
		}
		dir = parent
	}
}

// expandPatterns resolves package patterns to a deduplicated, sorted
// list of directories containing Go files.
func expandPatterns(patterns []string) ([]string, error) {
	seen := map[string]bool{}
	var dirs []string
	add := func(dir string) {
		if !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
	}
	for _, pat := range patterns {
		if rest, ok := strings.CutSuffix(pat, "..."); ok {
			root := filepath.Clean(strings.TrimSuffix(rest, "/"))
			if root == "" {
				root = "."
			}
			err := filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
				if err != nil {
					return err
				}
				if !d.IsDir() {
					return nil
				}
				name := d.Name()
				if p != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || isFile(filepath.Join(p, "go.mod"))) {
					return filepath.SkipDir
				}
				if hasGoFiles(p) {
					add(p)
				}
				return nil
			})
			if err != nil {
				return nil, fmt.Errorf("greenlint: expanding %s: %w", pat, err)
			}
			continue
		}
		dir := filepath.Clean(pat)
		if !hasGoFiles(dir) {
			return nil, fmt.Errorf("greenlint: no Go files in %s", dir)
		}
		add(dir)
	}
	return dirs, nil
}

func isFile(path string) bool {
	info, err := os.Stat(path)
	return err == nil && !info.IsDir()
}

func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") && !strings.HasPrefix(e.Name(), ".") {
			return true
		}
	}
	return false
}

// parseDir parses every Go file in dir and groups the files into the
// base unit and (if present) the external test unit.
func parseDir(fset *token.FileSet, dir, modRoot, modPath string) ([]*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("greenlint: %w", err)
	}
	importPath, err := dirImportPath(dir, modRoot, modPath)
	if err != nil {
		return nil, err
	}
	byName := map[string][]*ast.File{}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") || strings.HasPrefix(e.Name(), ".") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("greenlint: %w", err)
		}
		byName[f.Name.Name] = append(byName[f.Name.Name], f)
	}
	var units []*Package
	for _, name := range sortedKeys(byName) {
		units = append(units, &Package{
			Path:  importPath,
			Dir:   dir,
			Name:  name,
			Files: byName[name],
		})
	}
	return units, nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func dirImportPath(dir, modRoot, modPath string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	rel, err := filepath.Rel(modRoot, abs)
	if err != nil || strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("greenlint: %s is outside module %s", dir, modPath)
	}
	if rel == "." {
		return modPath, nil
	}
	return modPath + "/" + filepath.ToSlash(rel), nil
}

// check type-checks one unit, collecting rather than aborting on
// errors: a partially resolved package still yields useful findings.
func check(fset *token.FileSet, imp types.Importer, pkg *Package) {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Uses:       make(map[*ast.Ident]types.Object),
		Defs:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{
		Importer: imp,
		Error:    func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	path := pkg.Path
	if strings.HasSuffix(pkg.Name, "_test") {
		// External test packages get a distinct type-checker path so
		// the checker does not conflate them with the package under
		// test (which they import).
		path += "_test"
	}
	tpkg, _ := conf.Check(path, fset, pkg.Files, info)
	pkg.Types = tpkg
	pkg.Info = info
}
