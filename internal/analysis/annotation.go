package analysis

import (
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Annotation validates the //mpq: directives themselves, mirroring the
// malformed-//mpqvet:allow rule: a directive that is misspelled, has
// the wrong number of arguments or sits on the wrong kind of
// declaration would otherwise be silently ignored by the consuming
// analyzers — the most dangerous failure mode for an annotation-driven
// checker.
var Annotation = &Analyzer{
	Name: "annotation",
	Doc: "validate //mpq: directives: known name, right arity, legal anchor " +
		"(a misspelled invariant must not silently stop being checked)",
	Run: runAnnotation,
}

// anchorKind classifies what a directive comment is attached to.
type anchorKind int

const (
	anchorFree   anchorKind = iota // a statement-level or floating comment
	anchorFunc                     // a FuncDecl doc comment
	anchorMember                   // a struct field or package var
	anchorOther                    // doc of a const/type/import decl
)

// mpqDirectiveSpec describes one legal directive shape.
type mpqDirectiveSpec struct {
	argc    int
	onFunc  bool
	onField bool
	onFree  bool
	usage   string
}

var mpqDirectiveSpecs = map[string]mpqDirectiveSpec{
	"confined":  {argc: 1, onFunc: true, onField: true, usage: "//mpq:confined <domain> on a func, struct field or package var"},
	"entry":     {argc: 1, onFunc: true, usage: "//mpq:entry <domain> on a func"},
	"crossing":  {argc: 0, onFunc: true, onField: true, usage: "//mpq:crossing on a func, struct field or package var"},
	"noescape":  {argc: 0, onFunc: true, usage: "//mpq:noescape on a func"},
	"waitpoint": {argc: 0, onFree: true, usage: "//mpq:waitpoint on (or above) a statement inside a function body"},
}

func runAnnotation(pass *Pass) (any, error) {
	for _, f := range pass.Files {
		if isTestFile(pass.Fset.Position(f.Pos()).Filename) {
			continue
		}
		anchors := classifyAnchors(f)
		for _, cg := range f.Comments {
			kind, seen := anchors[cg]
			if !seen {
				kind = anchorFree
			}
			for _, d := range groupDirectives(cg) {
				checkDirective(pass, d, kind)
			}
		}
	}
	return nil, nil
}

// classifyAnchors maps each doc/line comment group of f to the kind of
// declaration it documents.
func classifyAnchors(f *ast.File) map[*ast.CommentGroup]anchorKind {
	anchors := make(map[*ast.CommentGroup]anchorKind)
	memberAnchor := func(cg *ast.CommentGroup) {
		if cg != nil {
			anchors[cg] = anchorMember
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			if n.Doc != nil {
				anchors[n.Doc] = anchorFunc
			}
		case *ast.StructType:
			for _, field := range n.Fields.List {
				memberAnchor(field.Doc)
				memberAnchor(field.Comment)
			}
		case *ast.GenDecl:
			if n.Tok == token.VAR {
				for _, spec := range n.Specs {
					if vs, ok := spec.(*ast.ValueSpec); ok {
						memberAnchor(vs.Doc)
						memberAnchor(vs.Comment)
						memberAnchor(n.Doc)
					}
				}
			} else if n.Doc != nil {
				anchors[n.Doc] = anchorOther
			}
		}
		return true
	})
	return anchors
}

// checkDirective validates one parsed directive against its anchor.
func checkDirective(pass *Pass, d mpqDirective, kind anchorKind) {
	spec, known := mpqDirectiveSpecs[d.name]
	if !known {
		if d.name == "" {
			pass.Reportf(d.pos, "empty //mpq: directive; known directives: %s", knownDirectiveNames())
			return
		}
		pass.Reportf(d.pos, "unknown //mpq: directive %q; known directives: %s", d.name, knownDirectiveNames())
		return
	}
	if len(d.args) != spec.argc {
		pass.Reportf(d.pos, "//mpq:%s takes %d argument(s), got %d; usage: %s",
			d.name, spec.argc, len(d.args), spec.usage)
		return
	}
	legal := (kind == anchorFunc && spec.onFunc) ||
		(kind == anchorMember && spec.onField) ||
		(kind == anchorFree && spec.onFree)
	if !legal {
		pass.Reportf(d.pos, "//mpq:%s is misplaced here (it would be silently ignored); usage: %s",
			d.name, spec.usage)
	}
}

// knownDirectiveNames lists the directive names for error messages,
// sorted for determinism.
func knownDirectiveNames() string {
	names := make([]string, 0, len(mpqDirectiveSpecs))
	for name := range mpqDirectiveSpecs {
		names = append(names, name)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}
