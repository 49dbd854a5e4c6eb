package lint

import (
	"fmt"
	"go/token"
	"strings"
)

// ShardSafety confines shared-memory synchronization in sim-core: any
// reference to an object from sync or sync/atomic — a type, a function, or a
// (possibly promoted) method — inside a sim-core file outside the
// sanctioned-synchronizer allow list is flagged. Go rejects unused imports,
// so every import of those packages has a use reported here; uses that need
// no import line, such as Lock/Unlock promoted through a struct embedded from
// another package, are caught too.
//
// Which shard owns a shard-spanning component's fields is not checked here:
// the race detector does that at run time (`make race` runs the sharded
// golden cases and the randomized sweep), where a source-side touch of
// destination-shard state is a reported data race.
type ShardSafety struct {
	// SimCore holds the import-path prefixes the rule applies to.
	SimCore []string
	// ConcurrencyAllow holds file-path suffixes exempt from the sync-access
	// check (the sanctioned synchronizer files).
	ConcurrencyAllow []string
}

// NewShardSafety returns the analyzer with the repo's default scope.
func NewShardSafety() *ShardSafety {
	return &ShardSafety{
		SimCore:          DefaultSimCorePackages,
		ConcurrencyAllow: DefaultConcurrencyAllow,
	}
}

// Name implements Analyzer.
func (*ShardSafety) Name() string { return RuleShardSafety }

func (a *ShardSafety) inScope(path string) bool {
	for _, pre := range a.SimCore {
		if path == pre || strings.HasPrefix(path, pre+"/") {
			return true
		}
	}
	return false
}

func (a *ShardSafety) concurrencyAllowed(file string) bool {
	for _, suf := range a.ConcurrencyAllow {
		if strings.HasSuffix(file, suf) {
			return true
		}
	}
	return false
}

// Check implements Analyzer: it flags every reference to a sync /
// sync/atomic object in non-allowed sim-core files.
func (a *ShardSafety) Check(p *Package) []Diagnostic {
	if !a.inScope(p.ImportPath) {
		return nil
	}
	var diags []Diagnostic
	seen := map[token.Pos]bool{}
	for id, obj := range p.Info.Uses {
		if obj == nil || obj.Pkg() == nil {
			continue
		}
		path := obj.Pkg().Path()
		if path != "sync" && path != "sync/atomic" {
			continue
		}
		if seen[id.Pos()] {
			continue
		}
		seen[id.Pos()] = true
		pos := p.Position(id.Pos())
		if a.concurrencyAllowed(pos.Filename) {
			continue
		}
		diags = append(diags, Diagnostic{
			Rule: RuleShardSafety, Pos: pos,
			Message: fmt.Sprintf(
				"use of %s.%s in sim-core package %s — shared-memory synchronization belongs in the conservative engine (internal/sim/parallel.go)",
				path, obj.Name(), p.ImportPath),
		})
	}
	return diags
}
