// Package vettest is the fixture runner for the jockeyvet analyzers — the
// analysistest analogue of the stdlib-only internal/vet framework. A fixture
// is a directory holding one Go package whose lines carry expectations:
//
//	time.Now() // want `reads the wall clock`
//
// Each `want` regexp must match exactly one diagnostic reported on its line,
// and every diagnostic must be claimed by a want. Fixtures import only the
// standard library; export data comes from `go list -export`, so the runner
// works offline.
package vettest

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync" //jockeyvet:ignore onepool a test-only fixture runner; the mutex guards its export-data cache against parallel tests
	"testing"

	"github.com/jockeysim/jockey/internal/vet"
)

var (
	exportMu    sync.Mutex
	exportFiles = map[string]string{}
)

// exportData locates compiled export data for a standard-library import
// path via the go command (building it on first use).
func exportData(path string) (string, error) {
	exportMu.Lock()
	defer exportMu.Unlock()
	if f, ok := exportFiles[path]; ok {
		return f, nil
	}
	out, err := exec.Command("go", "list", "-export", "-f", "{{.Export}}", path).Output()
	if err != nil {
		return "", fmt.Errorf("go list -export %s: %v", path, err)
	}
	f := strings.TrimSpace(string(out))
	if f == "" {
		return "", fmt.Errorf("no export data for %q", path)
	}
	exportFiles[path] = f
	return f, nil
}

// A Pkg names one fixture package: the directory holding its files and the
// import path it is analyzed under. The path is how fixtures opt in to (or
// stay out of) package-scoped rules: a fixture analyzed as
// "github.com/jockeysim/jockey/internal/sim" is bound by the determinism
// contract; one analyzed as "example.com/fixture/sim" is not, whatever its
// directory is called.
type Pkg struct {
	Dir  string
	Path string
}

// Run analyzes the single fixture package in dir under an import path equal
// to the directory base name prefixed with the repository's internal/ tree
// — the common case for package-scoped rules ("testdata/walltime/sim" is
// analyzed as <module>/internal/sim).
func Run(t *testing.T, dir string, analyzers ...*vet.Analyzer) {
	t.Helper()
	RunPkgs(t, []Pkg{{Dir: dir, Path: "github.com/jockeysim/jockey/internal/" + filepath.Base(dir)}}, analyzers...)
}

// RunPkg analyzes the fixture in dir under an explicit import path.
func RunPkg(t *testing.T, dir, path string, analyzers ...*vet.Analyzer) {
	t.Helper()
	RunPkgs(t, []Pkg{{Dir: dir, Path: path}}, analyzers...)
}

// RunPkgs analyzes a sequence of fixture packages in dependency order,
// sharing one fact store: facts exported while checking earlier packages
// are visible to later ones, exactly as the driver's vetx side files make
// upstream facts visible downstream. Later packages may import earlier ones
// by their fixture paths.
func RunPkgs(t *testing.T, pkgs []Pkg, analyzers ...*vet.Analyzer) {
	t.Helper()
	store := vet.NewFactStore()
	checked := map[string]*types.Package{}
	// One fset and one stdlib importer span every package: sibling fixtures
	// must agree on the identity of shared dependencies (math/rand/v2
	// imported twice as two distinct *types.Package would break cross-package
	// assignability).
	fset := token.NewFileSet()
	std := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		f, err := exportData(path)
		if err != nil {
			return nil, err
		}
		return os.Open(f)
	})
	for _, fp := range pkgs {
		names, err := filepath.Glob(filepath.Join(fp.Dir, "*.go"))
		if err != nil || len(names) == 0 {
			t.Fatalf("no fixture files in %s (%v)", fp.Dir, err)
		}
		sort.Strings(names)

		var files []*ast.File
		for _, name := range names {
			f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				t.Fatalf("parse %s: %v", name, err)
			}
			files = append(files, f)
		}

		info := vet.NewInfo()
		tcfg := &types.Config{Importer: &fixtureImporter{checked: checked, std: std}}
		pkg, err := tcfg.Check(fp.Path, fset, files, info)
		if err != nil {
			t.Fatalf("typecheck %s: %v", fp.Dir, err)
		}
		checked[fp.Path] = pkg

		diags, err := vet.Check(fset, files, pkg, info, analyzers, store)
		if err != nil {
			t.Fatal(err)
		}

		wants := collectWants(t, fset, files)
		type key struct {
			file string
			line int
		}
		unclaimed := map[key][]string{}
		for _, d := range diags {
			k := key{filepath.Base(d.Position.Filename), d.Position.Line}
			unclaimed[k] = append(unclaimed[k], d.Message)
		}
		for _, w := range wants {
			k := key{w.file, w.line}
			matched := -1
			for i, msg := range unclaimed[k] {
				if w.rx.MatchString(msg) {
					matched = i
					break
				}
			}
			if matched < 0 {
				t.Errorf("%s:%d: no diagnostic matching %q (got %q)", w.file, w.line, w.rx, unclaimed[k])
				continue
			}
			unclaimed[k] = append(unclaimed[k][:matched], unclaimed[k][matched+1:]...)
		}
		for k, msgs := range unclaimed {
			for _, msg := range msgs {
				t.Errorf("%s:%d: unexpected diagnostic: %s", k.file, k.line, msg)
			}
		}
	}
}

// fixtureImporter resolves sibling fixture packages already checked in this
// RunPkgs call, falling back to stdlib export data.
type fixtureImporter struct {
	checked map[string]*types.Package
	std     types.Importer
}

func (i *fixtureImporter) Import(path string) (*types.Package, error) {
	if p, ok := i.checked[path]; ok {
		return p, nil
	}
	return i.std.Import(path)
}

type want struct {
	file string
	line int
	rx   *regexp.Regexp
}

var wantRE = regexp.MustCompile("// want ((?:[`\"][^`\"]*[`\"]\\s*)+)$")

func collectWants(t *testing.T, fset *token.FileSet, files []*ast.File) []want {
	t.Helper()
	var wants []want
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				for _, q := range splitQuoted(m[1]) {
					pat, err := unquoteWant(q)
					if err != nil {
						t.Fatalf("%s:%d: bad want pattern %s: %v", pos.Filename, pos.Line, q, err)
					}
					rx, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s:%d: bad want regexp %s: %v", pos.Filename, pos.Line, q, err)
					}
					wants = append(wants, want{filepath.Base(pos.Filename), pos.Line, rx})
				}
			}
		}
	}
	return wants
}

func splitQuoted(s string) []string {
	var out []string
	s = strings.TrimSpace(s)
	for s != "" {
		quote := s[0]
		end := strings.IndexByte(s[1:], quote)
		if end < 0 {
			out = append(out, s)
			break
		}
		out = append(out, s[:end+2])
		s = strings.TrimSpace(s[end+2:])
	}
	return out
}

func unquoteWant(q string) (string, error) {
	if strings.HasPrefix(q, "`") {
		return strings.Trim(q, "`"), nil
	}
	return strconv.Unquote(q)
}
