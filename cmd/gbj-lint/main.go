// Command gbj-lint runs the repository's custom static analyzers (package
// internal/lint) over the module; `gbj-lint -list` prints the catalog, each
// analyzer with the rule it enforces and the directories it covers.
//
// Usage:
//
//	gbj-lint                  # analyze the whole module (equivalent to ./...)
//	gbj-lint ./...            # same
//	gbj-lint ./internal/exec ./internal/core
//	gbj-lint -list            # print the analyzer catalog
//	gbj-lint -json            # machine-readable findings report
//
// Findings print as "file:line:col: message (analyzer)" and make the
// command exit 1; a clean tree exits 0. With -json the report is a single
// JSON object with the findings and per-analyzer counts — the exit-code
// contract is the same. Suppress an individual finding with a
// "//lint:ignore <analyzer> <reason>" comment on or above its line; the
// analyzer name and reason are mandatory, and there is no blanket form.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/cliutil"
	"repro/internal/lint"
)

// report is the -json output schema.
type report struct {
	Findings []finding      `json:"findings"`
	Counts   map[string]int `json:"counts"`
	Total    int            `json:"total"`
}

type finding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func main() {
	list := flag.Bool("list", false, "print the analyzer catalog and exit")
	jsonOut := flag.Bool("json", false, "emit a machine-readable JSON report")
	flag.Parse()

	if err := cliutil.ValidateLintOutput(*jsonOut, *list); err != nil {
		fail(err)
	}

	analyzers := lint.DefaultAnalyzers()
	if *list {
		for _, a := range analyzers {
			scope := "all packages"
			if len(a.Dirs) > 0 {
				scope = strings.Join(a.Dirs, ", ")
			}
			fmt.Printf("%-14s %s [%s]\n", a.Name, a.Doc, scope)
		}
		return
	}

	loader, err := lint.NewLoader(".")
	if err != nil {
		fail(err)
	}
	dirs, err := targetDirs(loader.ModuleRoot, flag.Args())
	if err != nil {
		fail(err)
	}

	rep := report{Counts: make(map[string]int)}
	for _, dir := range dirs {
		pkg, err := loader.Load(dir)
		if err != nil {
			fail(err)
		}
		diags, err := lint.RunAnalyzers(pkg, analyzers)
		if err != nil {
			fail(err)
		}
		for _, d := range diags {
			rep.Findings = append(rep.Findings, finding{
				File:     relPath(loader.ModuleRoot, d.Pos.Filename),
				Line:     d.Pos.Line,
				Col:      d.Pos.Column,
				Analyzer: d.Analyzer,
				Message:  d.Message,
			})
			rep.Counts[d.Analyzer]++
			rep.Total++
			if !*jsonOut {
				fmt.Println(rel(loader.ModuleRoot, d))
			}
		}
	}

	if *jsonOut {
		if rep.Findings == nil {
			rep.Findings = []finding{}
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fail(err)
		}
	}
	if rep.Total > 0 {
		fmt.Fprintf(os.Stderr, "gbj-lint: %d finding(s)\n", rep.Total)
		os.Exit(1)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "gbj-lint:", err)
	os.Exit(2)
}

// targetDirs expands the command-line patterns into package directories.
// "./..." (or no arguments) means the whole module; a plain directory means
// that one package.
func targetDirs(moduleRoot string, args []string) ([]string, error) {
	if len(args) == 0 {
		return lint.ModuleDirs(moduleRoot)
	}
	var dirs []string
	for _, arg := range args {
		if arg == "./..." || arg == "..." {
			all, err := lint.ModuleDirs(moduleRoot)
			if err != nil {
				return nil, err
			}
			dirs = append(dirs, all...)
			continue
		}
		if base, ok := strings.CutSuffix(arg, "/..."); ok {
			sub, err := lint.ModuleDirs(filepath.Clean(base))
			if err != nil {
				return nil, err
			}
			dirs = append(dirs, sub...)
			continue
		}
		info, err := os.Stat(arg)
		if err != nil {
			return nil, err
		}
		if !info.IsDir() {
			return nil, fmt.Errorf("%s is not a directory", arg)
		}
		dirs = append(dirs, filepath.Clean(arg))
	}
	return dirs, nil
}

// relPath shortens a file path to be module-relative when possible.
func relPath(moduleRoot, file string) string {
	if r, err := filepath.Rel(moduleRoot, file); err == nil && !strings.HasPrefix(r, "..") {
		return filepath.ToSlash(r)
	}
	return file
}

// rel renders a diagnostic with a module-relative file path.
func rel(moduleRoot string, d lint.Diagnostic) string {
	return fmt.Sprintf("%s:%d:%d: %s (%s)", relPath(moduleRoot, d.Pos.Filename), d.Pos.Line, d.Pos.Column, d.Message, d.Analyzer)
}
