package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// SnapshotComplete cross-references the hand-written checkpoint codecs
// against the structs they serialize. A codec is any function or method that
// takes (or, for Save/Load-named functions, locally creates) a
// *snapshot.Encoder or *snapshot.Decoder; its subject struct comes from the
// receiver, a name hint (loadMessage -> Message), or the single struct
// parameter/result. Save and load codecs pair up by subject type and
// normalized name (SaveState/LoadState, EncodeFlit/DecodeFlit,
// SaveTracker/LoadTracker, MessageTable.SaveState/LoadMessageTable,
// Snapshot/Restore all pair).
//
// Four drift classes are reported:
//
//   - a mutable field the codecs never mention: state was added to the
//     struct but not to the checkpoint. "Mutable" means some non-codec
//     method of the package writes it — fields only ever set by
//     constructors (plain functions) are configuration and exempt, and
//     //sslint:nosnapshot exempts genuinely ephemeral fields explicitly;
//   - a field the save codec feeds into an encoder call but no load codec
//     mentions: encoded bytes that restore nowhere;
//   - a field a load codec fills from a decoder call but no save codec
//     mentions: a read of bytes nothing wrote, which desynchronizes the
//     stream;
//   - save and load visiting the fields both attribute in different orders.
//
// The comparison is deliberately field-anchored rather than a raw
// operation-trace diff: real codecs delegate asymmetrically (a save loops
// over a helper while the load inlines the reads), reset fields on load
// only, and validate names on load — all legal shapes that an exact
// op-sequence comparison would flag. Field mentions inside methods of the
// subject type called by a codec (one level deep) count as coverage, so
// delegation like Registry.LoadState -> register keeps its fields covered.
type SnapshotComplete struct {
	// SnapshotPackage is the import path of the codec-primitive package.
	SnapshotPackage string
}

// NewSnapshotComplete returns the analyzer bound to the repo's snapshot
// package.
func NewSnapshotComplete() *SnapshotComplete {
	return &SnapshotComplete{SnapshotPackage: "supersim/internal/snapshot"}
}

// Name implements Analyzer.
func (*SnapshotComplete) Name() string { return RuleSnapshotComplete }

type codecDir int

const (
	codecSave codecDir = iota
	codecLoad
)

func (d codecDir) String() string {
	if d == codecSave {
		return "save"
	}
	return "load"
}

// codecInfo is one analyzed codec function.
type codecInfo struct {
	fd       *ast.FuncDecl
	name     string
	dir      codecDir
	subject  *types.Named
	tail     string
	codecObj types.Object
	// mentions maps every subject field the body (plus one level of
	// same-subject method calls) touches to its first position.
	mentions map[*types.Var]token.Pos
	// attr maps fields attributed to encoder/decoder operations to the
	// first such operation's position; attrOrder is their first-occurrence
	// order.
	attr      map[*types.Var]token.Pos
	attrOrder []*types.Var
}

// nonDataMethods are Encoder/Decoder methods that move no payload bytes;
// calls to them are not codec operations.
var nonDataMethods = map[string]bool{
	"Err": true, "Failf": true, "Done": true, "Remaining": true,
	"Bytes": true, "Len": true,
}

// directionPrefixes map a codec-name prefix to its direction. Order matters:
// longer prefixes first so "snapshot" wins over "s..." style overlaps.
var directionPrefixes = []struct {
	prefix string
	dir    codecDir
}{
	{"snapshot", codecSave}, {"restore", codecLoad},
	{"save", codecSave}, {"load", codecLoad},
	{"encode", codecSave}, {"decode", codecLoad},
	{"write", codecSave}, {"read", codecLoad},
}

// Check implements Analyzer.
func (a *SnapshotComplete) Check(p *Package) []Diagnostic {
	var codecs []*codecInfo
	codecFDs := map[*ast.FuncDecl]bool{}
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ci := a.classify(p, fd)
			if ci != nil {
				codecs = append(codecs, ci)
				codecFDs[fd] = true
			}
		}
	}
	if len(codecs) == 0 {
		return nil
	}
	for _, ci := range codecs {
		a.scan(p, ci, codecFDs)
	}
	mutable := a.mutableFields(p, codecFDs)

	// Group by subject, then by normalized tail.
	type group struct {
		saves, loads []*codecInfo
	}
	subjects := map[*types.Named]map[string]*group{}
	var subjectOrder []*types.Named
	for _, ci := range codecs {
		tails, ok := subjects[ci.subject]
		if !ok {
			tails = map[string]*group{}
			subjects[ci.subject] = tails
			subjectOrder = append(subjectOrder, ci.subject)
		}
		g := tails[ci.tail]
		if g == nil {
			g = &group{}
			tails[ci.tail] = g
		}
		if ci.dir == codecSave {
			g.saves = append(g.saves, ci)
		} else {
			g.loads = append(g.loads, ci)
		}
	}
	sort.Slice(subjectOrder, func(i, j int) bool {
		return subjectOrder[i].Obj().Name() < subjectOrder[j].Obj().Name()
	})

	var diags []Diagnostic
	for _, subj := range subjectOrder {
		tails := subjects[subj]
		var tailOrder []string
		for t := range tails {
			tailOrder = append(tailOrder, t)
		}
		sort.Strings(tailOrder)

		paired := false
		saveMentions := map[*types.Var]bool{}
		loadMentions := map[*types.Var]bool{}
		saveAttr := map[*types.Var]token.Pos{}
		loadAttr := map[*types.Var]token.Pos{}
		for _, t := range tailOrder {
			g := tails[t]
			if len(g.saves) > 0 && len(g.loads) > 0 {
				paired = true
			}
			for _, ci := range g.saves {
				if len(g.loads) == 0 {
					diags = append(diags, Diagnostic{
						Rule: RuleSnapshotComplete, Pos: p.Position(ci.fd.Name.Pos()),
						Message: fmt.Sprintf(
							"save codec %s for %s has no matching load codec (looked for a load/%s pair)",
							ci.name, subj.Obj().Name(), t),
					})
				}
				for v := range ci.mentions {
					saveMentions[v] = true
				}
				for v, pos := range ci.attr {
					if _, ok := saveAttr[v]; !ok {
						saveAttr[v] = pos
					}
				}
			}
			for _, ci := range g.loads {
				if len(g.saves) == 0 {
					diags = append(diags, Diagnostic{
						Rule: RuleSnapshotComplete, Pos: p.Position(ci.fd.Name.Pos()),
						Message: fmt.Sprintf(
							"load codec %s for %s has no matching save codec (looked for a save/%s pair)",
							ci.name, subj.Obj().Name(), t),
					})
				}
				for v := range ci.mentions {
					loadMentions[v] = true
				}
				for v, pos := range ci.attr {
					if _, ok := loadAttr[v]; !ok {
						loadAttr[v] = pos
					}
				}
			}
			// Order comparison for one-to-one pairs.
			if len(g.saves) == 1 && len(g.loads) == 1 {
				diags = append(diags, a.orderDiags(p, subj, g.saves[0], g.loads[0])...)
			}
		}
		if !paired {
			continue // no complete pair: field-level auditing would misfire
		}

		// Presence: fields fed into encoder ops must be mentioned by a load,
		// fields filled from decoder ops must be mentioned by a save.
		for _, v := range sortedVars(saveAttr) {
			if !loadMentions[v] {
				diags = append(diags, Diagnostic{
					Rule: RuleSnapshotComplete, Pos: p.Position(saveAttr[v]),
					Message: fmt.Sprintf(
						"field %s.%s is encoded here but no load codec restores it",
						subj.Obj().Name(), v.Name()),
				})
			}
		}
		for _, v := range sortedVars(loadAttr) {
			if !saveMentions[v] {
				diags = append(diags, Diagnostic{
					Rule: RuleSnapshotComplete, Pos: p.Position(loadAttr[v]),
					Message: fmt.Sprintf(
						"field %s.%s is restored here but no save codec encodes it — the decode stream is misaligned",
						subj.Obj().Name(), v.Name()),
				})
			}
		}

		// Coverage: every mutable field of a locally-defined subject must be
		// mentioned by some codec or annotated //sslint:nosnapshot.
		if subj.Obj().Pkg() != p.Pkg {
			continue
		}
		st, ok := subj.Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			fld := st.Field(i)
			if fld.Anonymous() {
				continue // embedded types are audited via their own codecs
			}
			fpos := p.Position(fld.Pos())
			covered := saveMentions[fld] || loadMentions[fld]
			dir := p.directives.nosnapshotFor(fpos)
			switch {
			case covered && dir != nil:
				diags = append(diags, Diagnostic{
					Rule: RuleSnapshotComplete, Pos: dir.pos,
					Message: fmt.Sprintf(
						"field %s.%s is marked //sslint:nosnapshot but the codecs serialize it — remove the directive",
						subj.Obj().Name(), fld.Name()),
				})
			case !covered && dir == nil && mutable[fld]:
				diags = append(diags, Diagnostic{
					Rule: RuleSnapshotComplete, Pos: fpos,
					Message: fmt.Sprintf(
						"field %s.%s is mutated by methods of this package but never serialized — add it to the %s save/load codecs or mark it //sslint:nosnapshot with a justification",
						subj.Obj().Name(), fld.Name(), subj.Obj().Name()),
				})
			}
		}
	}
	return diags
}

// orderDiags compares the field order of a one-to-one save/load pair over
// the fields both sides attribute to codec operations.
func (a *SnapshotComplete) orderDiags(p *Package, subj *types.Named, save, load *codecInfo) []Diagnostic {
	inLoad := map[*types.Var]bool{}
	for _, v := range load.attrOrder {
		inLoad[v] = true
	}
	var saveSeq []*types.Var
	for _, v := range save.attrOrder {
		if inLoad[v] {
			saveSeq = append(saveSeq, v)
		}
	}
	inSave := map[*types.Var]bool{}
	for _, v := range save.attrOrder {
		inSave[v] = true
	}
	var loadSeq []*types.Var
	for _, v := range load.attrOrder {
		if inSave[v] {
			loadSeq = append(loadSeq, v)
		}
	}
	for i := 0; i < len(saveSeq) && i < len(loadSeq); i++ {
		if saveSeq[i] != loadSeq[i] {
			return []Diagnostic{{
				Rule: RuleSnapshotComplete, Pos: p.Position(load.fd.Name.Pos()),
				Message: fmt.Sprintf(
					"save/load codecs for %s disagree on field order: %s encodes %s before %s, but %s decodes %s first (save at %s)",
					subj.Obj().Name(), save.name, saveSeq[i].Name(), findAfter(saveSeq, i, loadSeq[i]),
					load.name, loadSeq[i].Name(), p.Position(save.fd.Name.Pos())),
			}}
		}
	}
	return nil
}

// findAfter names the load-side field as it appears later in the save
// sequence, for the order-mismatch message; falls back to the mismatched
// save field's counterpart name.
func findAfter(saveSeq []*types.Var, i int, loadField *types.Var) string {
	for _, v := range saveSeq[i:] {
		if v == loadField {
			return v.Name()
		}
	}
	return loadField.Name()
}

func sortedVars(m map[*types.Var]token.Pos) []*types.Var {
	out := make([]*types.Var, 0, len(m))
	for v := range m {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return m[out[i]] < m[out[j]] })
	return out
}

// classify decides whether fd is a codec and resolves its direction, codec
// value, subject, and normalized tail.
func (a *SnapshotComplete) classify(p *Package, fd *ast.FuncDecl) *codecInfo {
	obj, dir, ok := a.codecValue(p, fd)
	if !ok {
		return nil
	}
	subject := a.subjectOf(p, fd, obj)
	if subject == nil {
		return nil
	}
	ci := &codecInfo{
		fd: fd, name: codecDisplayName(fd), dir: dir, subject: subject,
		tail:     normalizeTail(fd.Name.Name, subject.Obj().Name()),
		mentions: map[*types.Var]token.Pos{},
		attr:     map[*types.Var]token.Pos{},
	}
	ci.codecObj = obj
	return ci
}

func codecDisplayName(fd *ast.FuncDecl) string {
	if fd.Recv != nil && len(fd.Recv.List) == 1 {
		return recvString(fd.Recv.List[0].Type) + "." + fd.Name.Name
	}
	return fd.Name.Name
}

// recvString renders a receiver type expression for diagnostics.
func recvString(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.StarExpr:
		return "(*" + recvString(x.X) + ")"
	case *ast.Ident:
		return x.Name
	case *ast.IndexExpr:
		return recvString(x.X)
	case *ast.IndexListExpr:
		return recvString(x.X)
	}
	return "recv"
}

// codecValue finds the encoder/decoder value a function operates on: a
// parameter of type *snapshot.Encoder/*snapshot.Decoder, or — for functions
// whose name carries a codec direction prefix — a local created via
// snapshot.NewEncoder/NewDecoder.
func (a *SnapshotComplete) codecValue(p *Package, fd *ast.FuncDecl) (types.Object, codecDir, bool) {
	if fd.Type.Params != nil {
		for _, fld := range fd.Type.Params.List {
			dir, ok := a.codecType(p.TypeOf(fld.Type))
			if !ok {
				continue
			}
			if len(fld.Names) != 1 {
				return nil, 0, false
			}
			return p.Info.Defs[fld.Names[0]], dir, true
		}
	}
	nameDir, named := nameDirection(fd.Name.Name)
	if !named {
		return nil, 0, false
	}
	var obj types.Object
	var dir codecDir
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if obj != nil {
			return false
		}
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 {
			return true
		}
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		fn, ok := p.Info.Uses[sel.Sel].(*types.Func)
		if !ok || fn.Pkg() == nil || fn.Pkg().Path() != a.SnapshotPackage {
			return true
		}
		var d codecDir
		switch fn.Name() {
		case "NewEncoder":
			d = codecSave
		case "NewDecoder":
			d = codecLoad
		default:
			return true
		}
		if id, ok := as.Lhs[0].(*ast.Ident); ok {
			if o := p.Info.Defs[id]; o != nil {
				obj, dir = o, d
			}
		}
		return true
	})
	if obj == nil || dir != nameDir {
		return nil, 0, false
	}
	return obj, dir, true
}

// codecType reports whether t is *snapshot.Encoder or *snapshot.Decoder.
func (a *SnapshotComplete) codecType(t types.Type) (codecDir, bool) {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return 0, false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != a.SnapshotPackage {
		return 0, false
	}
	switch named.Obj().Name() {
	case "Encoder":
		return codecSave, true
	case "Decoder":
		return codecLoad, true
	}
	return 0, false
}

// nameDirection resolves the codec direction a function name implies.
func nameDirection(name string) (codecDir, bool) {
	low := strings.ToLower(name)
	for _, dp := range directionPrefixes {
		if strings.HasPrefix(low, dp.prefix) {
			return dp.dir, true
		}
	}
	return 0, false
}

// normalizeTail maps a codec name to its pairing key: the name minus its
// direction prefix, with "", "state", and the subject's own name all
// canonicalized to "state" (SaveState, Snapshot/Restore, and
// LoadMessageTable-style names all pair up).
func normalizeTail(name, subject string) string {
	low := strings.ToLower(name)
	for _, dp := range directionPrefixes {
		if strings.HasPrefix(low, dp.prefix) {
			low = low[len(dp.prefix):]
			break
		}
	}
	if low == "" || low == "state" || low == strings.ToLower(subject) {
		return "state"
	}
	return low
}

// subjectOf resolves the struct a codec serializes: the receiver type, the
// name-hinted parameter/result type, or the single named-struct
// parameter/result.
func (a *SnapshotComplete) subjectOf(p *Package, fd *ast.FuncDecl, codecObj types.Object) *types.Named {
	if fd.Recv != nil && len(fd.Recv.List) == 1 {
		return namedStruct(p.TypeOf(fd.Recv.List[0].Type))
	}
	var candidates []*types.Named
	add := func(t types.Type) {
		if n := namedStruct(t); n != nil {
			candidates = append(candidates, n)
		}
	}
	if fd.Type.Params != nil {
		for _, fld := range fd.Type.Params.List {
			if len(fld.Names) == 1 && p.Info.Defs[fld.Names[0]] == codecObj {
				continue
			}
			add(p.TypeOf(fld.Type))
		}
	}
	nparams := len(candidates)
	if fd.Type.Results != nil {
		for _, fld := range fd.Type.Results.List {
			add(p.TypeOf(fld.Type))
		}
	}
	// Name hint first: loadMessage -> Message beats the *Pool parameter.
	low := strings.ToLower(fd.Name.Name)
	for _, dp := range directionPrefixes {
		if strings.HasPrefix(low, dp.prefix) {
			low = low[len(dp.prefix):]
			break
		}
	}
	for _, c := range candidates {
		if low != "" && strings.ToLower(c.Obj().Name()) == low {
			return c
		}
	}
	if nparams == 1 {
		return candidates[0]
	}
	if len(candidates)-nparams == 1 {
		return candidates[nparams]
	}
	return nil
}

// namedStruct unwraps pointers and reports the named struct type, if any.
func namedStruct(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return nil
	}
	if _, ok := named.Underlying().(*types.Struct); !ok {
		return nil
	}
	return named
}

// subjectFields returns the set of field objects of the subject struct.
func subjectFields(subj *types.Named) map[*types.Var]bool {
	out := map[*types.Var]bool{}
	st, ok := subj.Underlying().(*types.Struct)
	if !ok {
		return out
	}
	for i := 0; i < st.NumFields(); i++ {
		out[st.Field(i)] = true
	}
	return out
}

// scan walks a codec body collecting field mentions and attributed codec
// operations.
func (a *SnapshotComplete) scan(p *Package, ci *codecInfo, codecFDs map[*ast.FuncDecl]bool) {
	fields := subjectFields(ci.subject)
	a.collectMentions(p, ci.fd.Body, fields, ci.mentions)

	// One level of delegation: mentions inside same-subject methods called
	// from the codec body also count as coverage.
	ast.Inspect(ci.fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		s := p.Info.Selections[sel]
		if s == nil || s.Kind() != types.MethodVal {
			return true
		}
		if namedStruct(s.Recv()) != ci.subject {
			return true
		}
		fd := p.funcDeclOf(s.Obj())
		if fd == nil || fd.Body == nil || fd == ci.fd || codecFDs[fd] {
			return true
		}
		a.collectMentions(p, fd.Body, fields, ci.mentions)
		return true
	})

	// Codec operations and their field attribution.
	ast.Inspect(ci.fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if !a.isCodecOp(p, call, ci.codecObj) {
			return true
		}
		stmt := enclosingStmt(p, call)
		if stmt == nil {
			return true
		}
		if v := firstFieldMention(p, stmt, fields); v != nil {
			if _, seen := ci.attr[v]; !seen {
				ci.attr[v] = call.Pos()
				ci.attrOrder = append(ci.attrOrder, v)
			}
		}
		return true
	})
}

// isCodecOp reports whether the call moves codec bytes: a data method on the
// codec value itself, or a helper call that receives the codec value as an
// argument or receiver.
func (a *SnapshotComplete) isCodecOp(p *Package, call *ast.CallExpr, codecObj types.Object) bool {
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if id, ok := sel.X.(*ast.Ident); ok && p.Info.Uses[id] == codecObj {
			return !nonDataMethods[sel.Sel.Name]
		}
	}
	for _, arg := range call.Args {
		if usesObject(p, arg, codecObj) {
			return true
		}
	}
	return false
}

func usesObject(p *Package, e ast.Expr, obj types.Object) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && p.Info.Uses[id] == obj {
			found = true
		}
		return !found
	})
	return found
}

// collectMentions records every reference to a subject field: selector
// expressions and composite-literal keys.
func (a *SnapshotComplete) collectMentions(p *Package, body *ast.BlockStmt, fields map[*types.Var]bool, out map[*types.Var]token.Pos) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.SelectorExpr:
			if s := p.Info.Selections[x]; s != nil && s.Kind() == types.FieldVal {
				if v, ok := s.Obj().(*types.Var); ok && fields[v] {
					if _, seen := out[v]; !seen {
						out[v] = x.Sel.Pos()
					}
				}
			}
		case *ast.KeyValueExpr:
			if id, ok := x.Key.(*ast.Ident); ok {
				if v, ok := p.Info.Uses[id].(*types.Var); ok && fields[v] {
					if _, seen := out[v]; !seen {
						out[v] = id.Pos()
					}
				}
			}
		}
		return true
	})
}

// firstFieldMention returns the first (source-order) subject field mentioned
// within the statement, or nil.
func firstFieldMention(p *Package, stmt ast.Stmt, fields map[*types.Var]bool) *types.Var {
	var best *types.Var
	var bestPos token.Pos
	ast.Inspect(stmt, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		s := p.Info.Selections[sel]
		if s == nil || s.Kind() != types.FieldVal {
			return true
		}
		v, ok := s.Obj().(*types.Var)
		if !ok || !fields[v] {
			return true
		}
		if best == nil || sel.Sel.Pos() < bestPos {
			best, bestPos = v, sel.Sel.Pos()
		}
		return true
	})
	return best
}

func enclosingStmt(p *Package, n ast.Node) ast.Stmt {
	for c := ast.Node(n); c != nil; c = p.Parent(c) {
		if s, ok := c.(ast.Stmt); ok {
			return s
		}
	}
	return nil
}

// mutableFields computes the fields written by any method in the package
// outside the codec bodies: assignments, inc/dec, and address-taking all
// count. Fields written only by plain functions (constructors) stay
// immutable.
func (a *SnapshotComplete) mutableFields(p *Package, codecFDs map[*ast.FuncDecl]bool) map[*types.Var]bool {
	out := map[*types.Var]bool{}
	markFields := func(e ast.Expr) {
		ast.Inspect(e, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if s := p.Info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
				if v, ok := s.Obj().(*types.Var); ok {
					out[v] = true
				}
			}
			return true
		})
	}
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || fd.Body == nil || codecFDs[fd] {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.AssignStmt:
					for _, l := range x.Lhs {
						markFields(l)
					}
				case *ast.IncDecStmt:
					markFields(x.X)
				case *ast.UnaryExpr:
					if x.Op == token.AND {
						markFields(x.X)
					}
				}
				return true
			})
		}
	}
	return out
}
