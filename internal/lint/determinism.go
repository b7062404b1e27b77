package lint

import (
	"go/ast"
	"go/types"
)

// OrderIndependentDirective asserts a map-range's body is
// order-independent; the trailing text is the mandatory justification.
const OrderIndependentDirective = "chaffmec:orderindependent"

// Determinism enforces the bit-for-bit reproducibility contracts: shard
// Reports merge identically to a whole run, wire bytes round-trip, and
// store keys are canonical — all of which a nondeterministically
// ordered map iteration or a wall-clock read silently breaks.
//
// In the determinism-critical packages (report, store — the Report
// envelope, its wire codecs and the content-addressed artifact keys —
// and figures, experiments, plotter, which write the figure CSVs):
//
//   - every `range` over a map is a diagnostic unless annotated with
//     //chaffmec:orderindependent <why> on (or immediately above) the
//     loop, asserting its body commutes (per-key writes into another
//     map, collect-then-sort, …). Iterate sorted keys otherwise.
//
// In every kernel- or report-producing package (report, store, plus the
// math/simulation layers: markov, detect, chaff, engine, rng, stats,
// mobility, sim, mec, trace, trellis, geo, analysis, scenario):
//
//   - time.Now / time.Since / time.Until are diagnostics: wall-clock
//     values must never feed aggregates, wire bytes or keys. Provenance
//     timings (Report.ElapsedMS) are the one exception — suppress those
//     call sites with //lint:ignore determinism <why>.
//
// _test.go files are exempt: a test timing itself or ranging a map in
// an assertion does not touch the bit-for-bit contract (test flakiness
// is go test -race/-count's domain).
var Determinism = &Analyzer{
	Name: "determinism",
	Doc:  "forbid unsorted map ranges in report/store code paths and figure CSV writers, and wall-clock reads in kernel/report-producing packages",
	Run:  runDeterminism,
}

// mapRangePkgs are the package path elements whose map iterations feed
// Report series/scalars, wire encoders, store.Key parts or figure CSVs.
var mapRangePkgs = map[string]bool{
	"report":      true,
	"store":       true,
	"figures":     true,
	"experiments": true,
	"plotter":     true,
}

// wallClockPkgs are the package path elements where wall-clock reads
// are forbidden (kernel or report-producing paths). Driver layers
// (cmd/*, coordinator scheduling, figures, plotter) stay free to time
// things that never enter a Report's aggregate fields.
var wallClockPkgs = map[string]bool{
	"analysis": true, "chaff": true, "detect": true, "engine": true,
	"geo": true, "markov": true, "mec": true, "mobility": true,
	"report": true, "rng": true, "scenario": true,
	"sim": true, "stats": true, "store": true, "trace": true,
	"trellis": true,
}

func runDeterminism(pass *Pass) error {
	elem := pathElem(pass.Path)

	if wallClockPkgs[elem] {
		for ident, obj := range pass.Info.Uses {
			fn, ok := obj.(*types.Func)
			if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "time" {
				continue
			}
			if isTestFile(pass, ident.Pos()) {
				continue
			}
			switch fn.Name() {
			case "Now", "Since", "Until":
				pass.Reportf(ident.Pos(),
					"time.%s reads the wall clock on a kernel/report-producing path; results must be pure functions of (spec, seed, run range) — timings belong only in provenance fields (//lint:ignore determinism <why> there)", fn.Name())
			}
		}
	}

	if !mapRangePkgs[elem] {
		return nil
	}
	for _, f := range pass.Files {
		if isTestFile(pass, f.Pos()) {
			continue
		}
		directives := directiveLines(pass.Fset, f, OrderIndependentDirective)
		ast.Inspect(f, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			t := pass.TypeOf(rs.X)
			if t == nil {
				return true
			}
			if _, isMap := t.Underlying().(*types.Map); !isMap {
				return true
			}
			line := pass.Fset.Position(rs.For).Line
			for _, ln := range [2]int{line, line - 1} {
				if why, ok := directives[ln]; ok {
					if why == "" {
						pass.Reportf(rs.For,
							"//%s needs a justification: state WHY this loop body is order-independent", OrderIndependentDirective)
					}
					return true
				}
			}
			pass.Reportf(rs.For,
				"map iteration order is nondeterministic and this package feeds Report aggregates, wire bytes, store keys or figure CSVs; iterate sorted keys, or annotate //%s <why> if the body provably commutes", OrderIndependentDirective)
			return true
		})
	}
	return nil
}
