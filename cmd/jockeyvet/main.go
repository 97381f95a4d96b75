// Command jockeyvet is the repository's determinism- and performance-
// contract checker: a vet tool with eight repo-specific analyzers
// (walltime, globalrand, maporder, panicpath, errctx, seedflow, hotalloc,
// onepool —
// see the README table in this directory and the "Determinism contract"
// section of DESIGN.md).
//
// It speaks the `go vet -vettool` unit protocol, so the canonical
// invocation is
//
//	go build -o bin/jockeyvet ./cmd/jockeyvet
//	go vet -vettool=$PWD/bin/jockeyvet ./...
//
// Run directly with package patterns it re-execs itself through go vet, so
// `jockeyvet ./...` is equivalent; `jockeyvet -json ./...` aggregates every
// finding into one machine-readable report on stdout (schema below) and
// mirrors them as `file:line:col: [analyzer] message` lines on stderr for
// problem matchers. A package pattern that matches no packages is an error,
// so a CI typo cannot silently skip enforcement.
//
// A finding is suppressed only by fixing it or by an explicit, reasoned
// escape hatch on the offending line:
//
//	//jockeyvet:ignore <reason the rule does not apply here>
//	//jockeyvet:ignore <analyzer> <reason>   (suppresses only the named rule)
//
// The -json report schema, version 1:
//
//	{
//	  "version": 1,
//	  "tool": "jockeyvet",
//	  "diagnostics": [
//	    {"file": "...", "line": N, "column": N, "analyzer": "...", "message": "..."}
//	  ]
//	}
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"github.com/jockeysim/jockey/internal/vet"
	"github.com/jockeysim/jockey/internal/vet/rules"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	// The go command's vettool handshake: version probe, flag enumeration,
	// then one invocation per compilation unit with a vet.cfg path.
	if len(args) == 1 && strings.HasPrefix(args[0], "-V") {
		// The version must change whenever the tool's behavior does: the go
		// command keys its vet result cache on this string, so a constant
		// here would let a rebuilt jockeyvet silently reuse stale results.
		// Hash the binary itself, as x/tools' unitchecker does.
		fmt.Printf("jockeyvet version devel buildID=%s\n", selfHash())
		return 0
	}
	if len(args) == 1 && args[0] == "-flags" {
		// Advertise -json so `go vet -json -vettool=jockeyvet` forwards the
		// flag to each unit invocation.
		fmt.Println(`[{"Name":"json","Bool":true,"Usage":"emit JSON output"}]`)
		return 0
	}
	jsonOut := false
	if len(args) > 0 && (args[0] == "-json" || args[0] == "-json=true") {
		jsonOut = true
		args = args[1:]
	} else if len(args) > 0 && args[0] == "-json=false" {
		args = args[1:]
	}
	if len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		return vet.RunUnit(args[0], jsonOut, rules.All())
	}

	if len(args) > 0 && args[0] == "help" {
		help()
		return 0
	}

	// Standalone mode: `jockeyvet [-json] ./...` re-execs through go vet,
	// which handles package loading, export data, fact side files, and test
	// variants.
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "jockeyvet: locating own binary: %v\n", err)
		return 1
	}
	if len(args) == 0 {
		args = []string{"./..."}
	}
	if code := requirePackages(args); code != 0 {
		return code
	}
	if jsonOut {
		return runJSON(self, args)
	}
	cmd := exec.Command("go", append([]string{"vet", "-vettool=" + self}, args...)...)
	cmd.Stdout = os.Stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		if ee, ok := err.(*exec.ExitError); ok {
			return ee.ExitCode()
		}
		fmt.Fprintf(os.Stderr, "jockeyvet: %v\n", err)
		return 1
	}
	return 0
}

// requirePackages refuses patterns that match nothing: `jockeyvet
// ./intrenal/...` passing silently in CI would disable the whole contract.
func requirePackages(patterns []string) int {
	var stdout, stderr bytes.Buffer
	cmd := exec.Command("go", append([]string{"list", "--"}, patterns...)...)
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		fmt.Fprintf(os.Stderr, "jockeyvet: resolving package patterns %v: %v\n%s", patterns, err, stderr.String())
		return 1
	}
	if strings.TrimSpace(stdout.String()) == "" {
		fmt.Fprintf(os.Stderr, "jockeyvet: package pattern %s matched no packages; nothing would be checked\n", strings.Join(patterns, " "))
		return 1
	}
	return 0
}

// report is the -json aggregate: one sorted list of findings across every
// analyzed package. Version bumps only on incompatible shape changes.
type report struct {
	Version     int          `json:"version"`
	Tool        string       `json:"tool"`
	Diagnostics []diagnostic `json:"diagnostics"`
}

type diagnostic struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// runJSON drives `go vet -json`, aggregates the per-unit objects into one
// report on stdout, and mirrors findings on stderr in the
// `file:line:col: [analyzer] message` shape the CI problem matcher scrapes.
func runJSON(self string, patterns []string) int {
	// go vet's -json mode streams the per-unit objects (and `# pkg` headers)
	// on stderr, with stdout unused.
	var vetOut bytes.Buffer
	cmd := exec.Command("go", append([]string{"vet", "-json", "-vettool=" + self}, patterns...)...)
	cmd.Stdout = os.Stdout
	cmd.Stderr = &vetOut
	if err := cmd.Run(); err != nil {
		// `go vet -json` fails only on broken invocations (findings are
		// data, not an error); surface that and stop.
		fmt.Fprintf(os.Stderr, "jockeyvet: go vet -json: %v\n%s", err, vetOut.String())
		return 1
	}
	rep := report{Version: 1, Tool: "jockeyvet", Diagnostics: []diagnostic{}}
	if err := parseVetJSON(vetOut.Bytes(), &rep); err != nil {
		fmt.Fprintf(os.Stderr, "jockeyvet: %v\n", err)
		return 1
	}
	sort.Slice(rep.Diagnostics, func(i, j int) bool {
		a, b := rep.Diagnostics[i], rep.Diagnostics[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	out, err := json.MarshalIndent(rep, "", "\t")
	if err == nil {
		err = validateReport(out)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "jockeyvet: building report: %v\n", err)
		return 1
	}
	fmt.Println(string(out))
	for _, d := range rep.Diagnostics {
		fmt.Fprintf(os.Stderr, "%s:%d:%d: [%s] %s\n", d.File, d.Line, d.Column, d.Analyzer, d.Message)
	}
	if len(rep.Diagnostics) > 0 {
		return 2
	}
	return 0
}

// parseVetJSON decodes the `go vet -json` stream: `# pkg` comment lines
// interleaved with {"pkgid": {"analyzer": [{"posn", "message"}]}} objects.
func parseVetJSON(raw []byte, rep *report) error {
	var objs []byte
	for _, line := range bytes.Split(raw, []byte("\n")) {
		if bytes.HasPrefix(bytes.TrimSpace(line), []byte("#")) {
			continue
		}
		objs = append(objs, line...)
		objs = append(objs, '\n')
	}
	dec := json.NewDecoder(bytes.NewReader(objs))
	for {
		var unit map[string]map[string][]struct {
			Posn    string `json:"posn"`
			Message string `json:"message"`
		}
		if err := dec.Decode(&unit); err == io.EOF {
			return nil
		} else if err != nil {
			return fmt.Errorf("parsing go vet -json output: %w", err)
		}
		for _, byAnalyzer := range unit {
			for analyzer, diags := range byAnalyzer {
				for _, d := range diags {
					file, line, col := splitPosn(d.Posn)
					rep.Diagnostics = append(rep.Diagnostics, diagnostic{
						File:     relPath(file),
						Line:     line,
						Column:   col,
						Analyzer: analyzer,
						Message:  d.Message,
					})
				}
			}
		}
	}
}

// splitPosn breaks "path:line:col" from the right, so path may itself
// contain colons.
func splitPosn(posn string) (file string, line, col int) {
	rest := posn
	if i := strings.LastIndexByte(rest, ':'); i >= 0 {
		col, _ = strconv.Atoi(rest[i+1:])
		rest = rest[:i]
	}
	if i := strings.LastIndexByte(rest, ':'); i >= 0 {
		line, _ = strconv.Atoi(rest[i+1:])
		rest = rest[:i]
	}
	return rest, line, col
}

// relPath renders p relative to the working directory when possible: the
// problem matcher annotates PR files by repo-relative path.
func relPath(p string) string {
	wd, err := os.Getwd()
	if err != nil {
		return p
	}
	rel, err := filepath.Rel(wd, p)
	if err != nil || strings.HasPrefix(rel, "..") {
		return p
	}
	return rel
}

// validateReport checks data against the version-1 report schema; the
// integration tests call it on real output, and runJSON self-checks before
// printing.
func validateReport(data []byte) error {
	var rep struct {
		Version     *int    `json:"version"`
		Tool        *string `json:"tool"`
		Diagnostics *[]struct {
			File     *string `json:"file"`
			Line     *int    `json:"line"`
			Column   *int    `json:"column"`
			Analyzer *string `json:"analyzer"`
			Message  *string `json:"message"`
		} `json:"diagnostics"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&rep); err != nil {
		return fmt.Errorf("report schema: %w", err)
	}
	switch {
	case rep.Version == nil || *rep.Version != 1:
		return fmt.Errorf("report schema: version must be 1")
	case rep.Tool == nil || *rep.Tool != "jockeyvet":
		return fmt.Errorf("report schema: tool must be %q", "jockeyvet")
	case rep.Diagnostics == nil:
		return fmt.Errorf("report schema: diagnostics must be present (empty list when clean)")
	}
	for i, d := range *rep.Diagnostics {
		switch {
		case d.File == nil || *d.File == "":
			return fmt.Errorf("report schema: diagnostics[%d] missing file", i)
		case d.Line == nil || *d.Line < 1:
			return fmt.Errorf("report schema: diagnostics[%d] line must be >= 1", i)
		case d.Column == nil || *d.Column < 1:
			return fmt.Errorf("report schema: diagnostics[%d] column must be >= 1", i)
		case d.Analyzer == nil || *d.Analyzer == "":
			return fmt.Errorf("report schema: diagnostics[%d] missing analyzer", i)
		case d.Message == nil || *d.Message == "":
			return fmt.Errorf("report schema: diagnostics[%d] missing message", i)
		}
	}
	return nil
}

// selfHash fingerprints the running binary for the -V cache key.
func selfHash() string {
	self, err := os.Executable()
	if err != nil {
		return "unknown"
	}
	f, err := os.Open(self)
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "unknown"
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:16])
}

func help() {
	fmt.Println("jockeyvet — determinism- and performance-contract analyzers")
	fmt.Println()
	for _, a := range rules.All() {
		fmt.Printf("  %-10s %s\n", a.Name, a.Doc)
	}
	fmt.Println()
	fmt.Println("Usage: jockeyvet [-json] [package patterns]   (default ./...)")
	fmt.Println()
	fmt.Println("Mark an allocation-free function with a //jockey:hotpath doc comment")
	fmt.Println("to put its body under the hotalloc gate.")
	fmt.Println()
	fmt.Println("Suppress one line with a reasoned directive:")
	fmt.Println("  //jockeyvet:ignore <reason>              suppress every rule on the line")
	fmt.Println("  //jockeyvet:ignore <analyzer> <reason>   suppress only the named rule")
	fmt.Println("A reasoned directive that suppresses nothing is itself an error.")
	fmt.Println()
	fmt.Println("-json writes an aggregate report to stdout (version-1 schema) and")
	fmt.Println("mirrors findings on stderr as file:line:col: [analyzer] message.")
}
