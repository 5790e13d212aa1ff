package topk

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestWorkflowRunFiltersNameTests: every alternative of a CI workflow's
// `go test -run` filter matches, as go test matches it (an unanchored
// regexp), some func Test… declared in one of the packages that command
// names. A -run filter matching nothing passes silently, so without
// this check renaming a test would quietly drop it from the named
// suites that exist to keep it running (under -race, by name).
func TestWorkflowRunFiltersNameTests(t *testing.T) {
	files, err := filepath.Glob(".github/workflows/*.yml")
	if err != nil || len(files) == 0 {
		t.Fatalf("no workflow files found (%v)", err)
	}
	checked := 0
	for _, file := range files {
		raw, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		// Join shell line continuations so each command is one line.
		text := strings.ReplaceAll(string(raw), "\\\n", " ")
		for _, line := range strings.Split(text, "\n") {
			run, pkgs := runFilter(line)
			if run == "" {
				continue
			}
			declared := map[string]bool{}
			for _, pkg := range pkgs {
				for name := range testFuncs(t, pkg) {
					declared[name] = true
				}
			}
			for _, alt := range strings.Split(run, "|") {
				alt, _, _ = strings.Cut(alt, "/") // subtests select their parent
				if alt == "^$" {
					continue // the "no tests" idiom of benchmark steps
				}
				re, err := regexp.Compile(alt)
				if err != nil {
					t.Errorf("%s: -run %q: %v", file, run, err)
					continue
				}
				checked++
				found := false
				for name := range declared {
					found = found || re.MatchString(name)
				}
				if !found {
					t.Errorf("%s: -run %q: %s matches no test of %v", file, run, alt, pkgs)
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no -run test names found in the workflows")
	}
}

// runFilter extracts the -run pattern and the package arguments of one
// `go test` command line; run is "" when the line is not one.
func runFilter(line string) (run string, pkgs []string) {
	if !strings.Contains(line, "go test") {
		return "", nil
	}
	fields := strings.Fields(line)
	for i, f := range fields {
		switch {
		case f == "-run" && i+1 < len(fields):
			run = strings.Trim(fields[i+1], `'"`)
		case strings.HasPrefix(f, "-run="):
			run = strings.Trim(strings.TrimPrefix(f, "-run="), `'"`)
		case f == "." || strings.HasPrefix(f, "./"):
			pkgs = append(pkgs, f)
		}
	}
	if len(pkgs) == 0 {
		pkgs = []string{"."}
	}
	return run, pkgs
}

var testFuncRE = regexp.MustCompile(`(?m)^func (Test\w*)\(`)

// testFuncs returns the test functions declared in the package at dir,
// or in every package under it for a ./... pattern.
func testFuncs(t *testing.T, dir string) map[string]bool {
	t.Helper()
	out := map[string]bool{}
	root, recursive := strings.CutSuffix(dir, "/...")
	err := filepath.WalkDir(filepath.Clean(root), func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != filepath.Clean(root) && !recursive {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range testFuncRE.FindAllStringSubmatch(string(src), -1) {
			out[m[1]] = true
		}
		return nil
	})
	if err != nil {
		t.Fatalf("package %s: %v", dir, err)
	}
	return out
}
