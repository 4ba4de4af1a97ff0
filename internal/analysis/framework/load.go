package framework

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
)

// Package is one loaded, typechecked package.
type Package struct {
	ImportPath string
	Dir        string
	Files      []*ast.File
	Types      *types.Package
	TypesInfo  *types.Info
}

// listPkg is the subset of `go list -json` output the loader consumes.
type listPkg struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	DepOnly    bool
	Error      *struct{ Err string }
}

// Load lists the packages matching patterns (relative to dir, "" meaning
// the current directory), typechecks the matched packages from source, and
// returns them with full type information.
//
// Test files are not loaded: the analyzers guard production discipline,
// and tests legitimately poke at half-built states.
func Load(dir string, patterns ...string) (*token.FileSet, []*Package, error) {
	exports, targets, err := list(dir, patterns)
	if err != nil {
		return nil, nil, err
	}
	fset := token.NewFileSet()
	imp := ExportImporter(fset, exports)
	var pkgs []*Package
	for _, t := range targets {
		if len(t.GoFiles) == 0 {
			continue
		}
		pkg, err := Check(fset, imp, t.ImportPath, t.Dir, t.GoFiles)
		if err != nil {
			return nil, nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return fset, pkgs, nil
}

// Exports returns the import-path → export-file map of the packages
// matching patterns and everything they depend on, for ExportImporter.
func Exports(dir string, patterns ...string) (map[string]string, error) {
	exports, _, err := list(dir, patterns)
	return exports, err
}

// list runs the one `go list -export -deps` behind Load and Exports.  It
// returns the export map and the matched packages, sorted by import path.
//
// Dependency types come from compiled export data: `go list -export -deps`
// places every dependency's export file in the build cache, and the gc
// importer reads those files directly.  This is the same division of
// labour as go vet's unitchecker — only the packages under analysis are
// typechecked from source — and it works fully offline, since this module
// has no dependencies outside the standard library.
func list(dir string, patterns []string) (map[string]string, []listPkg, error) {
	if len(patterns) == 0 {
		patterns = []string{"."}
	}
	args := append([]string{
		"list", "-e", "-export", "-deps",
		"-json=ImportPath,Dir,Export,GoFiles,DepOnly,Error",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, nil, fmt.Errorf("go list %v: %v\n%s", patterns, err, stderr.String())
	}

	exports := map[string]string{}
	var targets []listPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, nil, fmt.Errorf("go list: decoding output: %v", err)
		}
		if p.Error != nil {
			return nil, nil, fmt.Errorf("go list: package %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.DepOnly {
			targets = append(targets, p)
		}
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i].ImportPath < targets[j].ImportPath })
	return exports, targets, nil
}

// ExportImporter returns a types.Importer that resolves import paths
// through a map of compiled export-data files (as produced by
// `go list -export`).
func ExportImporter(fset *token.FileSet, exports map[string]string) types.Importer {
	lookup := func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	}
	return importer.ForCompiler(fset, "gc", lookup)
}

// Check parses the named files and typechecks them as one package.
func Check(fset *token.FileSet, imp types.Importer, importPath, dir string, goFiles []string) (*Package, error) {
	var files []*ast.File
	for _, name := range goFiles {
		path := name
		if !filepath.IsAbs(path) {
			path = filepath.Join(dir, name)
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	conf := types.Config{
		Importer: imp,
		Sizes:    types.SizesFor("gc", build.Default.GOARCH),
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	tpkg, err := conf.Check(importPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("typecheck %s: %v", importPath, err)
	}
	return &Package{
		ImportPath: importPath,
		Dir:        dir,
		Files:      files,
		Types:      tpkg,
		TypesInfo:  info,
	}, nil
}

// A Finding is one diagnostic with its analyzer and resolved position —
// the machine-readable form behind both the text and -json outputs.
type Finding struct {
	Analyzer string         `json:"analyzer"`
	File     string         `json:"file"`
	Line     int            `json:"line"`
	Col      int            `json:"col"`
	Message  string         `json:"message"`
	pos      token.Position `json:"-"`
}

// String renders the classic file:line:col: analyzer: message form.
func (f Finding) String() string {
	return fmt.Sprintf("%s: %s: %s", f.pos, f.Analyzer, f.Message)
}

// RunAnalyzers applies every analyzer to every package — each pass
// carrying the whole-program view built over all of them — and returns
// the findings sorted by position.
func RunAnalyzers(fset *token.FileSet, pkgs []*Package, analyzers []*Analyzer) ([]Finding, error) {
	prog := BuildProgram(fset, pkgs)
	var findings []Finding
	for _, pkg := range pkgs {
		sup := CollectSuppressions(fset, pkg.Files)
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.TypesInfo,
				Prog:      prog,
			}
			name := a.Name
			pass.Report = func(d Diagnostic) {
				if sup.Allows(fset, name, d.Pos) {
					return
				}
				pos := fset.Position(d.Pos)
				findings = append(findings, Finding{
					Analyzer: name,
					File:     pos.Filename,
					Line:     pos.Line,
					Col:      pos.Column,
					Message:  d.Message,
					pos:      pos,
				})
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s on %s: %v", a.Name, pkg.ImportPath, err)
			}
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Message < b.Message
	})
	return findings, nil
}
