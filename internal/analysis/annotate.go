package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// The live fast lane's invariants are declared in the source with
// //mpq: directives. Four exist, none takes an argument, and each is
// read by exactly one check:
//
//	//mpq:confined    on a struct field (or package var): only code
//	                  the run loop reaches, and nothing else does, may
//	                  touch it. On a func/method: its body runs on the
//	                  loop AND only code already there may call it.
//	                  (confine)
//	//mpq:entry       on a func/method: a run-loop root — the calling
//	                  goroutine *becomes* the loop for the duration of
//	                  the call (live.Run). Callable from anywhere.
//	                  (confine, blocking)
//	//mpq:noescape    on a func/method: the escape gate fails the build
//	                  if the compiler reports anything in its body
//	                  escaping to the heap.
//	//mpq:waitpoint   on (or above) a statement: the designated blocking
//	                  site of a run-loop function; exempts it from the
//	                  blocking analyzer.
//
// mpqDirectiveSpecs (annotation.go) is the one table of legal shapes;
// collectAnnotations checks every directive against it while indexing,
// so a directive is either in the index its reader consults or in the
// problem list the annotation analyzer reports — never silently
// ignored.
const mpqPrefix = "mpq:"

// mpqDirective is one parsed //mpq: comment line.
type mpqDirective struct {
	name string // "confined", "entry", ...
	args string // what follows the name; no directive takes any
	pos  token.Pos
}

// parseMpqComment parses one comment line into a directive. ok is
// false when the comment is not an //mpq: directive at all. A nested
// "//" starts an inline rationale and ends the directive:
//
//	//mpq:confined // the loop owns all protocol state
func parseMpqComment(c *ast.Comment) (d mpqDirective, ok bool) {
	text := strings.TrimPrefix(c.Text, "//")
	if !strings.HasPrefix(text, mpqPrefix) {
		return d, false
	}
	text = strings.TrimPrefix(text, mpqPrefix)
	if i := strings.Index(text, "//"); i >= 0 {
		text = text[:i]
	}
	fields := strings.Fields(text)
	d.pos = c.Slash
	if len(fields) > 0 {
		d.name = fields[0]
		d.args = strings.Join(fields[1:], " ")
	}
	return d, true
}

// lineKey addresses one source line, the granularity //mpq:waitpoint
// covers.
type lineKey struct {
	file string
	line int
}

// annotations is the package-wide index of //mpq: directives: what
// confine, blocking and the escape gate consume, plus the malformed
// ones for the annotation analyzer to report.
type annotations struct {
	// confined holds the fields, package vars and functions marked
	// //mpq:confined: only the run loop may touch or call them.
	confined map[types.Object]bool
	// loopRoot holds the functions whose body runs on the run loop
	// whoever calls them: those marked //mpq:entry, and the confined
	// ones.
	loopRoot map[*types.Func]bool
	// noescape holds the //mpq:noescape functions, in source order.
	noescape []NoescapeFunc
	// waitpoints holds the lines covered by //mpq:waitpoint (the
	// directive's own line and the one below).
	waitpoints map[lineKey]bool
	// problems are the directives that fit no legal shape.
	problems []Diagnostic
}

// annotations returns pkg's directive index, built by one walk over
// the package on first use and shared by every consumer.
func (pkg *Package) annotations() *annotations {
	if pkg.ann == nil {
		pkg.ann = collectAnnotations(pkg)
	}
	return pkg.ann
}

// collectAnnotations walks each file once: every declaration that can
// anchor a directive hands its comment groups to note, and whatever
// comment group is left over afterwards is free-standing.
func collectAnnotations(pkg *Package) *annotations {
	ann := &annotations{
		confined:   make(map[types.Object]bool),
		loopRoot:   make(map[*types.Func]bool),
		waitpoints: make(map[lineKey]bool),
	}
	for _, f := range pkg.Files {
		// anchored holds each anchored comment group's well-formed
		// directives: a group shared by several specs (the doc of a
		// `var ( ... )` block) is judged once and applied to each.
		anchored := make(map[*ast.CommentGroup][]mpqDirective)
		note := func(kind anchorKind, decl ast.Node, names []*ast.Ident, cg *ast.CommentGroup) {
			if cg == nil {
				return
			}
			ds, seen := anchored[cg]
			if !seen {
				ds = ann.wellFormed(cg, kind)
				anchored[cg] = ds
			}
			for _, d := range ds {
				for _, name := range names {
					if obj := pkg.Info.Defs[name]; obj != nil {
						ann.record(pkg.Fset, d, decl, obj)
					}
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				note(anchorFunc, n, []*ast.Ident{n.Name}, n.Doc)
			case *ast.StructType:
				for _, field := range n.Fields.List {
					note(anchorMember, field, field.Names, field.Doc)
					note(anchorMember, field, field.Names, field.Comment)
				}
			case *ast.GenDecl:
				if n.Tok != token.VAR {
					note(anchorOther, n, nil, n.Doc)
					break
				}
				for _, spec := range n.Specs {
					vs := spec.(*ast.ValueSpec)
					note(anchorMember, vs, vs.Names, n.Doc)
					note(anchorMember, vs, vs.Names, vs.Doc)
					note(anchorMember, vs, vs.Names, vs.Comment)
				}
			}
			return true
		})
		for _, cg := range f.Comments {
			if _, seen := anchored[cg]; seen {
				continue
			}
			// Only //mpq:waitpoint is legal free-standing.
			for _, d := range ann.wellFormed(cg, anchorFree) {
				pos := pkg.Fset.Position(d.pos)
				ann.waitpoints[lineKey{pos.Filename, pos.Line}] = true
				ann.waitpoints[lineKey{pos.Filename, pos.Line + 1}] = true
			}
		}
	}
	return ann
}

// wellFormed returns the directives of cg that are legal on an anchor
// of the given kind; the others become problems.
func (ann *annotations) wellFormed(cg *ast.CommentGroup, kind anchorKind) []mpqDirective {
	var out []mpqDirective
	for _, c := range cg.List {
		d, ok := parseMpqComment(c)
		if !ok {
			continue
		}
		if problem := checkDirective(d, kind); problem != "" {
			ann.problems = append(ann.problems, Diagnostic{Pos: d.pos, Message: problem})
			continue
		}
		out = append(out, d)
	}
	return out
}

// record files one well-formed directive of a func, field or var under
// the index its reader consults; checkDirective has already matched
// name, arity and anchor.
func (ann *annotations) record(fset *token.FileSet, d mpqDirective, decl ast.Node, obj types.Object) {
	fn, _ := obj.(*types.Func)
	switch d.name {
	case "confined":
		ann.confined[obj] = true
		if fn != nil {
			ann.loopRoot[fn] = true
		}
	case "entry":
		ann.loopRoot[fn] = true
	case "noescape":
		if body := decl.(*ast.FuncDecl).Body; body != nil {
			start, end := fset.Position(body.Lbrace), fset.Position(body.Rbrace)
			ann.noescape = append(ann.noescape, NoescapeFunc{
				Name: fn.FullName(), File: start.Filename, StartLine: start.Line, EndLine: end.Line,
			})
		}
	}
}

// onWaitpoint reports whether pos's line carries (or follows) a
// //mpq:waitpoint directive.
func (ann *annotations) onWaitpoint(fset *token.FileSet, pos token.Pos) bool {
	p := fset.Position(pos)
	return ann.waitpoints[lineKey{p.Filename, p.Line}]
}
