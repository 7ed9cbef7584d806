package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// The live fast lane's invariants are declared in the source with
// //mpq: directives, the same way //mpqvet:allow already audits
// suppressions. Five directives exist:
//
//	//mpq:confined <domain>   on a struct field (or package var): only
//	                          code in that goroutine domain may touch
//	                          it. On a func/method: its body executes
//	                          in that domain AND only code already in
//	                          that domain may call it.
//	//mpq:entry <domain>      on a func/method: a domain root — the
//	                          calling goroutine *becomes* that domain
//	                          for the duration of the call (live.Run is
//	                          the run-loop entry; readLoop the reader
//	                          entry). Callable from anywhere.
//	//mpq:crossing            on a field/var/func: a sanctioned
//	                          cross-domain touch point (a channel, an
//	                          atomic, a lock-free signal).
//	//mpq:noescape            on a func/method: the mpq-escape gate
//	                          fails the build if the compiler reports
//	                          anything in its body escaping to the heap.
//	//mpq:waitpoint           on (or above) a statement: the designated
//	                          blocking site of a run-loop function;
//	                          exempts it from the blocking analyzer.
//
// The annotation analyzer (annotation.go) validates every directive —
// unknown names, wrong arity and misplaced anchors are themselves
// errors, mirroring the malformed-//mpqvet:allow rule.
const mpqPrefix = "mpq:"

// mpqDirective is one parsed //mpq: comment line.
type mpqDirective struct {
	name string // "confined", "entry", ...
	args []string
	pos  token.Pos
}

// parseMpqComment parses one comment line into a directive. ok is
// false when the comment is not an //mpq: directive at all. A nested
// "//" starts an inline rationale and ends the directive:
//
//	//mpq:confined run-loop // the loop owns all protocol state
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
		d.args = fields[1:]
	}
	return d, true
}

// groupDirectives yields the directives of a comment group.
func groupDirectives(cg *ast.CommentGroup) []mpqDirective {
	if cg == nil {
		return nil
	}
	var out []mpqDirective
	for _, c := range cg.List {
		if d, ok := parseMpqComment(c); ok {
			out = append(out, d)
		}
	}
	return out
}

// lineKey addresses one source line, the granularity //mpq:waitpoint
// (like //mpqvet:allow) covers.
type lineKey struct {
	file string
	line int
}

// annotations is the package-wide index of //mpq: directives the
// confine and blocking analyzers consume.
type annotations struct {
	// fieldDomain maps a confined struct field (or package var) to its
	// goroutine domain name.
	fieldDomain map[types.Object]string
	// crossing holds fields/vars/funcs sanctioned for any-domain use.
	crossing map[types.Object]bool
	// funcDomain maps a //mpq:confined function to its domain: body
	// runs there, and callers must already be there.
	funcDomain map[*types.Func]string
	// funcEntry maps a //mpq:entry function to the domain it roots.
	funcEntry map[*types.Func]string
	// noescape holds //mpq:noescape functions (consumed by the escape
	// gate; indexed here so the annotation analyzer can validate it).
	noescape map[*types.Func]bool
	// waitpoints holds the lines covered by //mpq:waitpoint (the
	// directive's own line and the one below, like //mpqvet:allow).
	waitpoints map[lineKey]bool
}

// collectAnnotations indexes every //mpq: directive of the package.
// Malformed directives are ignored here — the annotation analyzer owns
// reporting them — so the consuming analyzers stay quiet on inputs the
// validator already rejects.
func collectAnnotations(pass *Pass) *annotations {
	ann := &annotations{
		fieldDomain: make(map[types.Object]string),
		crossing:    make(map[types.Object]bool),
		funcDomain:  make(map[*types.Func]string),
		funcEntry:   make(map[*types.Func]string),
		noescape:    make(map[*types.Func]bool),
		waitpoints:  make(map[lineKey]bool),
	}
	for _, f := range pass.Files {
		// Waitpoints attach to lines, not declarations.
		for _, cg := range f.Comments {
			for _, d := range groupDirectives(cg) {
				if d.name == "waitpoint" {
					pos := pass.Fset.Position(d.pos)
					ann.waitpoints[lineKey{pos.Filename, pos.Line}] = true
					ann.waitpoints[lineKey{pos.Filename, pos.Line + 1}] = true
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				obj, _ := pass.TypesInfo.Defs[n.Name].(*types.Func)
				if obj == nil {
					return true
				}
				for _, d := range groupDirectives(n.Doc) {
					switch d.name {
					case "confined":
						if len(d.args) == 1 {
							ann.funcDomain[obj] = d.args[0]
						}
					case "entry":
						if len(d.args) == 1 {
							ann.funcEntry[obj] = d.args[0]
						}
					case "crossing":
						ann.crossing[obj] = true
					case "noescape":
						ann.noescape[obj] = true
					}
				}
			case *ast.StructType:
				for _, field := range n.Fields.List {
					ds := append(groupDirectives(field.Doc), groupDirectives(field.Comment)...)
					if len(ds) == 0 {
						continue
					}
					for _, name := range field.Names {
						obj := pass.TypesInfo.Defs[name]
						if obj == nil {
							continue
						}
						applyMemberDirectives(ann, obj, ds)
					}
				}
			case *ast.GenDecl:
				if n.Tok != token.VAR {
					return true
				}
				for _, spec := range n.Specs {
					vs, ok := spec.(*ast.ValueSpec)
					if !ok {
						continue
					}
					ds := append(groupDirectives(n.Doc), groupDirectives(vs.Doc)...)
					ds = append(ds, groupDirectives(vs.Comment)...)
					if len(ds) == 0 {
						continue
					}
					for _, name := range vs.Names {
						obj := pass.TypesInfo.Defs[name]
						if obj == nil {
							continue
						}
						applyMemberDirectives(ann, obj, ds)
					}
				}
			}
			return true
		})
	}
	return ann
}

// applyMemberDirectives records the field/var-shaped directives.
func applyMemberDirectives(ann *annotations, obj types.Object, ds []mpqDirective) {
	for _, d := range ds {
		switch d.name {
		case "confined":
			if len(d.args) == 1 {
				ann.fieldDomain[obj] = d.args[0]
			}
		case "crossing":
			ann.crossing[obj] = true
		}
	}
}

// onWaitpoint reports whether pos's line carries (or follows) a
// //mpq:waitpoint directive.
func (ann *annotations) onWaitpoint(fset *token.FileSet, pos token.Pos) bool {
	p := fset.Position(pos)
	return ann.waitpoints[lineKey{p.Filename, p.Line}]
}
