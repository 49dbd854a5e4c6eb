// Package lint implements sslint, a simulator-aware static analysis suite.
//
// SuperSim's value rests on bit-exact reproducibility: identical configs must
// yield identical results, and every observation probe must be free when
// disabled. The runtime test suite (golden traces, byte-identical
// observation-only e2e, the verify subsystem, the steady-state allocation
// budget in internal/core) catches violations after the fact; this package
// catches them at lint time, as structural properties of the source.
//
// Four analyzers encode the repo's invariants:
//
//   - determinism: sim-core packages must not read the wall clock, draw from
//     the global math/rand source, or let map iteration order feed simulation
//     state (Determinism).
//   - factoryreg: every concrete implementation of a factory-registered
//     component interface must be registered in an init(), and registration
//     names must be unique per registry (FactoryReg).
//   - snapshotcomplete: the hand-written checkpoint codecs must cover every
//     mutable field of the structs they serialize — encoded, restored, and
//     in a consistent order (SnapshotComplete).
//   - shardsafety: shared-memory synchronization (sync, sync/atomic) in
//     sim-core stays confined to the sanctioned synchronizer files
//     (ShardSafety).
//
// Two invariants are checked by the program rather than here. The probe
// types in internal/telemetry and internal/verify are safe to call on a nil
// receiver (each package has a test calling every exported method on nil),
// so an unguarded probe call cannot crash an observation-disabled run. Which
// shard owns a cross-shard component's state is checked by the race detector
// over the sharded golden runs (`make race`).
//
// The engine is stdlib-only: packages are loaded with go/parser and
// type-checked with go/types using importer.ForCompiler's source importer;
// no external analysis framework is required.
//
// # Directives
//
// Two comment directives steer the analyzers:
//
//	//sslint:allow <rule>[,<rule>...] — <justification>
//
// suppresses findings of the named rules on the same line, the line below,
// or (when placed in a function's doc comment) anywhere in that function.
// The justification text is mandatory, and an allow that suppresses nothing
// is itself reported, so suppressions cannot rot.
//
//	//sslint:nosnapshot — <justification>
//
// on a struct field (same line or the line above) declares the field
// genuinely ephemeral for the snapshotcomplete analyzer: rebuilt wiring,
// derived caches, scratch state. The justification is mandatory, and a
// nosnapshot on a field the codecs do serialize — or on no field at all —
// is reported.
package lint

import (
	"fmt"
	"go/token"
	"sort"
)

// Rule names of the shipped analyzers plus the internal directive checker.
const (
	RuleDeterminism      = "determinism"
	RuleFactoryReg       = "factoryreg"
	RuleSnapshotComplete = "snapshotcomplete"
	RuleShardSafety      = "shardsafety"

	// RuleDirective reports misuse of the //sslint: directives themselves:
	// unknown rule names, missing justifications, allows that suppress
	// nothing, and unknown //sslint: directives. It is active whenever the
	// full analyzer set runs.
	RuleDirective = "directive"
)

// Rules returns the names of the selectable analyzers, sorted.
func Rules() []string {
	return []string{RuleDeterminism, RuleFactoryReg, RuleShardSafety,
		RuleSnapshotComplete}
}

// RuleDoc returns a one-line description of a rule, for `sslint -list-rules`
// and the make lint-rules target.
func RuleDoc(name string) string {
	switch name {
	case RuleDeterminism:
		return "sim-core code must not read the wall clock, draw global randomness, iterate maps into state, or spawn ad-hoc concurrency"
	case RuleFactoryReg:
		return "every concrete factory component must be registered in an init() under a unique name"
	case RuleSnapshotComplete:
		return "checkpoint codecs must cover every mutable field symmetrically: encoded, restored, and in the same order"
	case RuleShardSafety:
		return "sync and sync/atomic in sim-core stay confined to the sanctioned synchronizer files"
	case RuleDirective:
		return "//sslint: directives must be well-formed, justified, and in active use"
	}
	return ""
}

// KnownRule reports whether name identifies a selectable analyzer.
func KnownRule(name string) bool {
	for _, r := range Rules() {
		if r == name {
			return true
		}
	}
	return false
}

// NewAnalyzer constructs the analyzer implementing the named rule with its
// default configuration.
func NewAnalyzer(name string) (Analyzer, error) {
	switch name {
	case RuleDeterminism:
		return NewDeterminism(), nil
	case RuleFactoryReg:
		return NewFactoryReg(), nil
	case RuleSnapshotComplete:
		return NewSnapshotComplete(), nil
	case RuleShardSafety:
		return NewShardSafety(), nil
	}
	return nil, fmt.Errorf("lint: unknown rule %q (have %v)", name, Rules())
}

// AllAnalyzers returns fresh instances of every shipped analyzer.
func AllAnalyzers() []Analyzer {
	out := make([]Analyzer, 0, len(Rules()))
	for _, r := range Rules() {
		a, err := NewAnalyzer(r)
		if err != nil {
			panic(err)
		}
		out = append(out, a)
	}
	return out
}

// Diagnostic is one finding: a rule violation at a source position.
type Diagnostic struct {
	Rule    string
	Pos     token.Position
	Message string
}

// String renders the diagnostic in the canonical file:line:col form used by
// the text output and the baseline file.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s [%s]", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message, d.Rule)
}

// Analyzer is one lint rule. Check is called once per loaded package;
// analyzers that need a whole-program view (FactoryReg) accumulate state
// across Check calls and implement Finisher.
type Analyzer interface {
	// Name returns the rule identifier reported with each diagnostic.
	Name() string
	// Check analyzes one package and returns its diagnostics.
	Check(p *Package) []Diagnostic
}

// Finisher is implemented by analyzers that report cross-package diagnostics
// after every package has been checked.
type Finisher interface {
	Finish() []Diagnostic
}

// Runner drives a set of analyzers over loaded packages and applies the
// //sslint:allow suppression pass.
type Runner struct {
	// Analyzers to run. Use AllAnalyzers for the full suite.
	Analyzers []Analyzer
	// CheckDirectives enables the RuleDirective meta-findings (malformed
	// directives and allows that suppressed nothing). It should be true only
	// when the full analyzer set runs — with a rule subset, allows for the
	// disabled rules would be falsely reported as unused.
	CheckDirectives bool
}

// Run checks every package with every analyzer, applies suppression, and
// returns the surviving diagnostics sorted by position.
func (r *Runner) Run(pkgs []*Package) []Diagnostic {
	var diags []Diagnostic
	for _, p := range pkgs {
		for _, a := range r.Analyzers {
			diags = append(diags, a.Check(p)...)
		}
	}
	for _, a := range r.Analyzers {
		if f, ok := a.(Finisher); ok {
			diags = append(diags, f.Finish()...)
		}
	}

	// Suppression: an allow directive absorbs matching diagnostics; the
	// directive problems (and unused allows) are findings of their own.
	var allows []*allowDirective
	for _, p := range pkgs {
		allows = append(allows, p.directives.allows...)
	}
	kept := diags[:0]
	for _, d := range diags {
		suppressed := false
		for _, a := range allows {
			if a.matches(d) {
				a.used = true
				suppressed = true
			}
		}
		if !suppressed {
			kept = append(kept, d)
		}
	}
	diags = kept

	if r.CheckDirectives {
		for _, p := range pkgs {
			diags = append(diags, p.directives.problems...)
		}
		for _, a := range allows {
			if !a.used {
				diags = append(diags, Diagnostic{
					Rule: RuleDirective,
					Pos:  a.pos,
					Message: fmt.Sprintf(
						"//sslint:allow %s suppresses nothing — remove it", a.rule),
				})
			}
		}
		// A nosnapshot no field claimed is rot — but only the
		// snapshotcomplete analyzer marks them used, so only a run that
		// includes it can tell.
		ranSnapshot := false
		for _, a := range r.Analyzers {
			if a.Name() == RuleSnapshotComplete {
				ranSnapshot = true
			}
		}
		if ranSnapshot {
			for _, p := range pkgs {
				for _, n := range p.directives.nosnapshots {
					if !n.used {
						diags = append(diags, Diagnostic{
							Rule: RuleDirective, Pos: n.pos,
							Message: "//sslint:nosnapshot does not cover any audited struct field — remove it",
						})
					}
				}
			}
		}
	}

	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Message < b.Message
	})
	return diags
}
