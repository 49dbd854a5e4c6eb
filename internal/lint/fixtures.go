package lint

import (
	"fmt"
	"path/filepath"
	"regexp"
)

// The want-comment fixture packages under testdata/src double as executable
// documentation of each rule. The specs here are shared by the package tests
// and by `sslint -fixtures`, which replays them as a tooling self-check: a
// rule that drifts from its fixtures fails `make lint`, not just `go test`.

// FixtureSpec describes one fixture run: which testdata/src directory to
// load, the import path to load it under (scoped rules key off the path),
// and the rules to run over it.
type FixtureSpec struct {
	Name       string   // unique display name for reports
	Dir        string   // directory under testdata/src
	ImportPath string   // import path the fixture is loaded as
	Rules      []string // rule names, resolved through NewAnalyzer

	// WantClean inverts the check: the rules must produce zero diagnostics
	// (scope tests reloading a fixture outside its rule's package scope),
	// and the fixture's want comments are ignored.
	WantClean bool
}

// FixtureSpecs returns every fixture run, in a stable order.
func FixtureSpecs() []FixtureSpec {
	det := []string{RuleDeterminism}
	detSync := []string{RuleDeterminism, RuleShardSafety}
	return []FixtureSpec{
		// Loaded under a sim-core import path: the fixture plays an
		// internal/sim subpackage.
		{Name: "determinism", Dir: "determinism",
			ImportPath: "supersim/internal/sim/lintfixture", Rules: det},
		// Snapshot encode/decode is byte-compared by the import/export
		// equivalence tests, so the codec package is sim-core for the
		// determinism rule: the same fixture must produce the same
		// diagnostics under the snapshot import path.
		{Name: "determinism-snapshot-scope", Dir: "determinism",
			ImportPath: "supersim/internal/snapshot/lintfixture", Rules: det},
		// The same files outside the sim-core prefixes produce nothing.
		{Name: "determinism-out-of-scope", Dir: "determinism",
			ImportPath: "supersim/internal/lint/testdata/src/determinism",
			Rules:      det, WantClean: true},
		// The task runner's journals are byte-compared by fixed-clock
		// goldens, so taskrun is sim-core with two file-scoped seams:
		// clock.go may read the wall clock and taskrun.go may use sync and
		// launch goroutines.
		{Name: "taskrun", Dir: "taskrun",
			ImportPath: "supersim/internal/taskrun/lintfixture", Rules: detSync},
		// The file-suffix allowlists never widen the rules' package scope.
		{Name: "taskrun-out-of-scope", Dir: "taskrun",
			ImportPath: "supersim/internal/lint/testdata/src/taskrun",
			Rules:      detSync, WantClean: true},
		{Name: "factoryreg", Dir: "factoryreg",
			ImportPath: "supersim/internal/lint/testdata/src/factoryreg",
			Rules:      []string{RuleFactoryReg}},
		{Name: "snapshotcomplete", Dir: "snapshotcomplete",
			ImportPath: "supersim/internal/lint/testdata/src/snapshotcomplete",
			Rules:      []string{RuleSnapshotComplete}},
		// Loaded under a sim-core import path: the fixture plays an
		// internal/channel subpackage.
		{Name: "shardsafety", Dir: "shardsafety",
			ImportPath: "supersim/internal/channel/lintfixture",
			Rules:      []string{RuleShardSafety}},
		{Name: "shardsafety-out-of-scope", Dir: "shardsafety",
			ImportPath: "supersim/internal/lint/testdata/src/shardsafety",
			Rules:      []string{RuleShardSafety}, WantClean: true},
	}
}

// want comments mark expected diagnostics in fixture files:
//
//	for k := range m { // want `map iteration order`
//
// Each backquoted string is a regexp that must match a diagnostic rendered
// as "message [rule]" on the comment's line, and every diagnostic must match
// some want.
var (
	wantRE     = regexp.MustCompile("want ((?:`[^`]*`)(?:\\s+`[^`]*`)*)")
	wantItemRE = regexp.MustCompile("`[^`]*`")
)

type fixtureWant struct {
	line int
	re   *regexp.Regexp
	hit  bool
}

func collectFixtureWants(p *Package) ([]*fixtureWant, error) {
	var wants []*fixtureWant
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				line := p.Position(c.Pos()).Line
				for _, item := range wantItemRE.FindAllString(m[1], -1) {
					re, err := regexp.Compile(item[1 : len(item)-1])
					if err != nil {
						return nil, fmt.Errorf("%s:%d: bad want pattern %s: %v",
							p.ImportPath, line, item, err)
					}
					wants = append(wants, &fixtureWant{line: line, re: re})
				}
			}
		}
	}
	return wants, nil
}

// LoadFixture loads spec's package from the testdata tree under lintDir
// (the directory holding this package's testdata/), consulting and filling
// cache — keyed by import path — when it is non-nil.
func LoadFixture(l *Loader, lintDir string, spec FixtureSpec, cache map[string]*Package) (*Package, error) {
	if p, ok := cache[spec.ImportPath]; ok {
		return p, nil
	}
	p, err := l.Load(filepath.Join(lintDir, "testdata", "src", spec.Dir), spec.ImportPath)
	if err != nil {
		return nil, fmt.Errorf("loading fixture %s as %s: %w", spec.Dir, spec.ImportPath, err)
	}
	if cache != nil {
		cache[spec.ImportPath] = p
	}
	return p, nil
}

// CheckFixture runs one spec and returns a description of every mismatch
// between the diagnostics and the fixture's want comments (or, for
// WantClean specs, every diagnostic produced). An empty slice means the
// fixture holds; a non-nil error means the run itself could not happen.
func CheckFixture(l *Loader, lintDir string, spec FixtureSpec, cache map[string]*Package) ([]string, error) {
	p, err := LoadFixture(l, lintDir, spec, cache)
	if err != nil {
		return nil, err
	}
	analyzers := make([]Analyzer, 0, len(spec.Rules))
	for _, rule := range spec.Rules {
		a, err := NewAnalyzer(rule)
		if err != nil {
			return nil, fmt.Errorf("fixture %s: %w", spec.Name, err)
		}
		analyzers = append(analyzers, a)
	}

	if spec.WantClean {
		// Bare Check, as the scope tests do: directive processing would
		// suppress nothing here, and an out-of-scope rule must already be
		// silent before suppression.
		var problems []string
		for _, a := range analyzers {
			for _, d := range a.Check(p) {
				problems = append(problems, fmt.Sprintf("rule fired out of scope: %s", d))
			}
		}
		return problems, nil
	}

	// The full pipeline, as the driver runs it: directive suppression on, so
	// fixtures can also assert unused-directive findings.
	r := &Runner{Analyzers: analyzers, CheckDirectives: true}
	diags := r.Run([]*Package{p})
	if len(diags) == 0 {
		return []string{fmt.Sprintf("%s: analyzers produced no diagnostics at all — the rule is vacuous", p.ImportPath)}, nil
	}
	wants, err := collectFixtureWants(p)
	if err != nil {
		return nil, err
	}
	if len(wants) == 0 {
		return []string{fmt.Sprintf("%s: fixture has no want comments", p.ImportPath)}, nil
	}
	var problems []string
	for _, d := range diags {
		text := d.Message + " [" + d.Rule + "]"
		matched := false
		for _, w := range wants {
			if w.line == d.Pos.Line && w.re.MatchString(text) {
				w.hit = true
				matched = true
			}
		}
		if !matched {
			problems = append(problems, fmt.Sprintf("unexpected diagnostic: %s", d))
		}
	}
	for _, w := range wants {
		if !w.hit {
			problems = append(problems, fmt.Sprintf("%s: no diagnostic matching %q on line %d", p.ImportPath, w.re, w.line))
		}
	}
	return problems, nil
}
