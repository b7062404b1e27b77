package lint_test

import (
	"path/filepath"
	"slices"
	"testing"

	"chaffmec/internal/lint"
)

// loadRepoPkg type-checks a real package of the enclosing module.
func loadRepoPkg(t *testing.T, rel string) *lint.Package {
	t.Helper()
	modPath, modDir, err := lint.FindModule(".")
	if err != nil {
		t.Fatal(err)
	}
	l := lint.NewLoader()
	l.SetModule(modPath, modDir)
	pkg, err := l.LoadDir(modPath+"/"+rel, filepath.Join(modDir, filepath.FromSlash(rel)), false)
	if err != nil {
		t.Fatal(err)
	}
	return pkg
}

// TestSampleBatchStaysHotpathClean is the kernel regression gate: the
// PR 6 sampling kernel must keep its //chaffmec:hotpath directive and
// must produce zero hotpath diagnostics, so an alloc-introducing edit
// fails here (and in chaffvet) before the alloc-pin benchmarks run.
func TestSampleBatchStaysHotpathClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the real tree through the source importer")
	}
	pkg := loadRepoPkg(t, "internal/markov")
	if got := lint.HotpathFuncs(pkg); !slices.Contains(got, "(*Chain).SampleBatch") {
		t.Fatalf("markov hotpath functions = %v; (*Chain).SampleBatch lost its //chaffmec:hotpath directive", got)
	}
	diags, err := lint.RunAnalyzers(pkg, []*lint.Analyzer{lint.Hotpath})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("internal/markov: %s", d)
	}
}

// TestDetectKernelsStayAnnotated pins the block-scoring kernels.
func TestDetectKernelsStayAnnotated(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the real tree through the source importer")
	}
	pkg := loadRepoPkg(t, "internal/detect")
	got := lint.HotpathFuncs(pkg)
	for _, want := range []string{"(*MLDetector).ScoreBlock", "(*AdvancedDetector).ScoreBlock"} {
		if !slices.Contains(got, want) {
			t.Errorf("detect hotpath functions = %v; %s lost its directive", got, want)
		}
	}
}

// TestLoaderHonorsBuildConstraints pins the loader's platform file
// selection: internal/report pairs decode_zerocopy.go with
// decode_purego.go behind mutually exclusive build constraints.
// Exactly one of the pair may join the package, or type-checking
// collides on the shared function name — which is precisely how the
// bug manifests if the loader regresses to reading every file in the
// directory.
func TestLoaderHonorsBuildConstraints(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the real tree through the source importer")
	}
	for _, rel := range []string{"internal/store", "internal/report"} {
		pkg := loadRepoPkg(t, rel)
		if pkg.Types == nil {
			t.Fatalf("%s: loaded without a type-checked package", rel)
		}
	}
}
