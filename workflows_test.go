package spanners

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestFuzzMatrixListsEveryTarget: the matrix of .github/workflows/fuzz.yml
// — the one list CI's 10 s smokes and the scheduled long run share — names
// exactly the Fuzz functions of this module (bench/ is a module of its
// own), each in its package, so a new fuzzer is smoked and run long from
// its first commit.
func TestFuzzMatrixListsEveryTarget(t *testing.T) {
	src, err := os.ReadFile(".github/workflows/fuzz.yml")
	if err != nil {
		t.Fatal(err)
	}
	var matrix []string
	for _, m := range regexp.MustCompile(`target: (Fuzz\w+), pkg: (\./[\w/]+/)`).FindAllStringSubmatch(string(src), -1) {
		matrix = append(matrix, m[2]+" "+m[1])
	}
	slices.Sort(matrix)
	var tree []string
	fuzzFunc := regexp.MustCompile(`(?m)^func (Fuzz\w+)\(`)
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (path == "bench" || strings.HasPrefix(d.Name(), ".") && path != ".") {
			return filepath.SkipDir
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range fuzzFunc.FindAllStringSubmatch(string(src), -1) {
			tree = append(tree, "./"+filepath.ToSlash(filepath.Dir(path))+"/ "+m[1])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	slices.Sort(tree)
	if len(matrix) == 0 || !slices.Equal(matrix, tree) {
		t.Fatalf("fuzz.yml's matrix and the tree's Fuzz functions differ:\nmatrix: %v\nFuzz functions: %v", matrix, tree)
	}
}

// TestRaceRepeatedListsRealTests: every name in the -run list of ci.yml's
// "race, repeated" step is a Test function of one of the packages that
// step runs. go test passes on a -run pattern that matches nothing
// ("no tests to run"), so without this check a renamed test would drop
// out of the repeated race runs silently.
func TestRaceRepeatedListsRealTests(t *testing.T) {
	src, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	step := regexp.MustCompile(`(?s)- name: race, repeated.*?\n      - name:`).FindString(string(src))
	list := regexp.MustCompile(`-run '\^\(([\w|]+)\)\$'`).FindStringSubmatch(step)
	if list == nil {
		t.Fatal(`ci.yml has no "race, repeated" step with a -run '^(A|B|…)$' list`)
	}
	pkgs := regexp.MustCompile(`\./[\w/]+/`).FindAllString(step, -1)
	defined := map[string]bool{}
	testFunc := regexp.MustCompile(`(?m)^func (Test\w+)\(t \*testing\.T\)`)
	for _, pkg := range pkgs {
		files, err := filepath.Glob(filepath.Join(pkg, "*_test.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range files {
			src, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range testFunc.FindAllStringSubmatch(string(src), -1) {
				defined[m[1]] = true
			}
		}
	}
	for _, name := range strings.Split(list[1], "|") {
		if !defined[name] {
			t.Errorf("ci.yml's race, repeated step runs %s, which no package of the step (%v) defines", name, pkgs)
		}
	}
}
