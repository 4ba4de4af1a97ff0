// Command rvmcheck runs the RVM static-analysis suite: unloggedstore,
// txlifecycle, uncheckedcommit, locksync, obsleak, and lockorder (see
// internal/analysis).
//
// Standalone mode analyzes the packages matching the given patterns and
// exits 1 if any diagnostic is reported:
//
//	go run ./cmd/rvmcheck ./...
//	go run ./cmd/rvmcheck -json ./...
//
// Standalone mode loads every matched package into one program, so the
// interprocedural passes (call-graph summaries, lock-hierarchy
// verification) see across package boundaries.  With -json the findings
// are emitted as a machine-readable object:
//
//	{"findings":[{"analyzer":...,"file":...,"line":...,"col":...,"message":...}]}
//
// The binary also speaks the go vet driver protocol, so it can be used
// as a vet tool (which additionally analyzes test packages; diagnostics
// in _test.go files themselves are suppressed — the analyzers guard
// production discipline, and tests legitimately poke at half-built
// states):
//
//	go build -o rvmcheck ./cmd/rvmcheck
//	go vet -vettool=./rvmcheck ./...
//
// In vet mode the go command invokes the tool once per package with
// -V=full (version handshake), -flags (flag discovery), and a JSON
// config file argument naming the sources and the export data of every
// dependency; findings go to stderr and exit status 2, matching
// x/tools' unitchecker.  Vet units are single-package programs, so the
// interprocedural rules degrade to per-package call graphs there.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"go/token"
	"go/types"
	"io"
	"os"
	"path/filepath"
	"strings"

	"github.com/rvm-go/rvm/internal/analysis"
	"github.com/rvm-go/rvm/internal/analysis/framework"
)

func main() {
	// The go vet protocol probes come before flag parsing: the driver
	// invokes `rvmcheck -V=full` and `rvmcheck -flags` literally.
	if len(os.Args) == 2 {
		switch os.Args[1] {
		case "-V=full", "--V=full":
			printVersion()
			return
		case "-flags", "--flags":
			fmt.Println("[]")
			return
		}
	}

	jsonOut := flag.Bool("json", false, "emit findings as JSON")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: rvmcheck [-json] [packages]\n\nAnalyzers:\n")
		for _, a := range analysis.All() {
			fmt.Fprintf(flag.CommandLine.Output(), "  %-16s %s\n", a.Name, a.Doc)
		}
	}
	flag.Parse()
	args := flag.Args()

	// Vet mode: a single argument ending in .cfg is the per-package JSON
	// config written by the go command.
	if len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		os.Exit(vetUnit(args[0]))
	}

	os.Exit(standalone(args, *jsonOut))
}

// standalone loads, typechecks, and analyzes the matched packages as one
// whole program.
func standalone(patterns []string, jsonOut bool) int {
	fset, pkgs, err := framework.Load("", patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rvmcheck: %v\n", err)
		return 2
	}
	findings, err := framework.RunAnalyzers(fset, pkgs, analysis.All())
	if err != nil {
		fmt.Fprintf(os.Stderr, "rvmcheck: %v\n", err)
		return 2
	}
	if jsonOut {
		out := struct {
			Findings []framework.Finding `json:"findings"`
		}{Findings: findings}
		if out.Findings == nil {
			out.Findings = []framework.Finding{}
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintf(os.Stderr, "rvmcheck: %v\n", err)
			return 2
		}
	} else {
		for _, f := range findings {
			fmt.Println(f)
		}
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "rvmcheck: %d finding(s)\n", len(findings))
		return 1
	}
	return 0
}

// printVersion emits the `-V=full` handshake line the go command uses as
// a cache key; hashing the executable keeps vet results correctly
// invalidated when the tool changes.
func printVersion() {
	progname := filepath.Base(os.Args[0])
	sum := "unknown"
	if exe, err := os.Executable(); err == nil {
		if f, err := os.Open(exe); err == nil {
			h := sha256.New()
			if _, err := io.Copy(h, f); err == nil {
				sum = fmt.Sprintf("%x", h.Sum(nil)[:12])
			}
			f.Close()
		}
	}
	fmt.Printf("%s version devel-%s\n", progname, sum)
}

// vetConfig is the JSON schema of the config file the go command hands a
// vet tool (the fields this driver consumes).
type vetConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoVersion                 string
	GoFiles                   []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// vetUnit analyzes one package unit described by a vet config file.
func vetUnit(cfgPath string) int {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rvmcheck: %v\n", err)
		return 1
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "rvmcheck: parsing %s: %v\n", cfgPath, err)
		return 1
	}

	// The go command requires the facts file to exist even though this
	// suite exports no facts.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, []byte("rvmcheck-no-facts\n"), 0o666); err != nil {
			fmt.Fprintf(os.Stderr, "rvmcheck: %v\n", err)
			return 1
		}
	}
	if cfg.VetxOnly {
		return 0
	}

	var goFiles []string
	for _, f := range cfg.GoFiles {
		if strings.HasSuffix(f, ".go") {
			goFiles = append(goFiles, f)
		}
	}
	if len(goFiles) == 0 {
		return 0
	}

	fset := token.NewFileSet()
	imp := vetImporter{
		base:      framework.ExportImporter(fset, cfg.PackageFile),
		importMap: cfg.ImportMap,
	}
	pkg, err := framework.Check(fset, imp, cfg.ImportPath, cfg.Dir, goFiles)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		fmt.Fprintf(os.Stderr, "rvmcheck: %v\n", err)
		return 1
	}

	findings, err := framework.RunAnalyzers(fset, []*framework.Package{pkg}, analysis.All())
	if err != nil {
		fmt.Fprintf(os.Stderr, "rvmcheck: %v\n", err)
		return 1
	}
	findings = dropTestFileDiags(findings)
	for _, f := range findings {
		fmt.Fprintln(os.Stderr, f)
	}
	if len(findings) > 0 {
		return 2 // the unitchecker "diagnostics reported" status
	}
	return 0
}

// dropTestFileDiags suppresses findings located in _test.go files.
func dropTestFileDiags(findings []framework.Finding) []framework.Finding {
	var kept []framework.Finding
	for _, f := range findings {
		if strings.HasSuffix(f.File, "_test.go") {
			continue
		}
		kept = append(kept, f)
	}
	return kept
}

// vetImporter resolves imports through the config's ImportMap (source
// import path → canonical path) before the shared export-data importer
// (canonical path → export data).  The underlying gc importer caches, so
// diamond dependencies resolve to one *types.Package.
type vetImporter struct {
	base      types.Importer
	importMap map[string]string
}

func (v vetImporter) Import(path string) (*types.Package, error) {
	if real, ok := v.importMap[path]; ok {
		path = real
	}
	return v.base.Import(path)
}
