package lint_test

import (
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"chaffmec/internal/lint"
	"chaffmec/internal/lint/linttest"
)

func TestStreamStabilitySuite(t *testing.T) {
	linttest.Run(t, "testdata/streamstability/src", lint.StreamStability, "streams")
}

func TestDeterminismSuite(t *testing.T) {
	linttest.Run(t, "testdata/determinism/src", lint.Determinism, "report", "figures")
}

func TestHotpathSuite(t *testing.T) {
	linttest.Run(t, "testdata/hotpath/src", lint.Hotpath, "hot")
}

func TestFacadeSuite(t *testing.T) {
	linttest.Run(t, "testdata/facade/src", lint.Facade, "chaffmec")
}

func TestSuiteNamesResolve(t *testing.T) {
	all := lint.Analyzers()
	if len(all) != 4 {
		t.Fatalf("suite has %d analyzers, want 4", len(all))
	}
	for _, a := range all {
		got, ok := lint.ByName(a.Name)
		if !ok || got != a {
			t.Errorf("ByName(%q) = %v, %v; want the suite analyzer", a.Name, got, ok)
		}
		if a.Doc == "" {
			t.Errorf("analyzer %s has no Doc", a.Name)
		}
	}
	if _, ok := lint.ByName("nope"); ok {
		t.Error(`ByName("nope") resolved`)
	}
}

// TestReasonlessIgnoreIsReported pins the malformed-suppression rule:
// an //lint:ignore with no justification does not take effect and is
// itself reported under the pseudo-analyzer "lint". (The testdata
// suites cannot express this: a want comment appended to the directive
// line would parse as its justification.)
func TestReasonlessIgnoreIsReported(t *testing.T) {
	dir := t.TempDir()
	src := `package p

func f(seed int64) int64 {
	//lint:ignore streamstability
	return seed + 1
}
`
	if err := os.WriteFile(filepath.Join(dir, "p.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	l := lint.NewLoader()
	pkg, err := l.LoadDir("p", dir, false)
	if err != nil {
		t.Fatal(err)
	}
	diags, err := lint.RunAnalyzers(pkg, []*lint.Analyzer{lint.StreamStability})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 2 {
		t.Fatalf("got %d diagnostics, want 2 (malformed ignore + surviving finding):\n%v", len(diags), diags)
	}
	if diags[0].Analyzer != "lint" || !strings.Contains(diags[0].Message, "justification") {
		t.Errorf("diags[0] = %s; want the malformed-ignore report", diags[0])
	}
	if diags[1].Analyzer != "streamstability" {
		t.Errorf("diags[1] = %s; want the un-suppressed seed-arithmetic finding", diags[1])
	}
}

// TestUndocumentedConst pins the missing-doc rule for value specs: it
// cannot live in the facade suite because a trailing want comment would
// itself document the const under test.
func TestUndocumentedConst(t *testing.T) {
	dir := t.TempDir()
	src := `package chaffmec

const Bare = 1

var Exposed int
`
	if err := os.WriteFile(filepath.Join(dir, "facade.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	l := lint.NewLoader()
	pkg, err := l.LoadDir("chaffmec", dir, false)
	if err != nil {
		t.Fatal(err)
	}
	diags, err := lint.RunAnalyzers(pkg, []*lint.Analyzer{lint.Facade})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, d := range diags {
		got = append(got, d.Message)
	}
	want := []string{
		"exported const Bare needs a doc comment (facade surface)",
		"exported var Exposed needs a doc comment (facade surface)",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("diagnostics = %q, want %q", got, want)
	}
}

func TestHotpathFuncs(t *testing.T) {
	l := lint.NewLoader()
	l.SetSourceRoot("testdata/hotpath/src")
	pkg, err := l.LoadDir("hot", filepath.Join("testdata/hotpath/src", "hot"), false)
	if err != nil {
		t.Fatal(err)
	}
	got := lint.HotpathFuncs(pkg)
	sort.Strings(got)
	want := []string{"(*scorer).ScoreBlock", "boxing", "concat", "copyOut", "kernel", "sumOf"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("HotpathFuncs = %v, want %v", got, want)
	}
}
