// Package passes registers every jsonskilint analyzer. The command
// and the meta-tests both consume this list, so adding a pass here is
// the single step that wires it into the suite — and into the fixture
// conventions the meta-test enforces (a testdata module with bad and
// good packages under the directory named after the analyzer).
package passes

import (
	"jsonski/tools/lint/analysis"
	"jsonski/tools/lint/passes/chargesite"
	"jsonski/tools/lint/passes/escapespan"
	"jsonski/tools/lint/passes/mapownership"
	"jsonski/tools/lint/passes/navgen"
	"jsonski/tools/lint/passes/poolpair"
	"jsonski/tools/lint/passes/spanend"
	"jsonski/tools/lint/passes/tracenil"
)

// All returns every registered analyzer, in the order the command runs
// and lists them.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		poolpair.Analyzer,
		escapespan.Analyzer,
		chargesite.Analyzer,
		tracenil.Analyzer,
		spanend.Analyzer,
		mapownership.Analyzer,
		navgen.Analyzer,
	}
}
