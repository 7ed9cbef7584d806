package analysis

import (
	"fmt"
	"sort"
	"strings"
)

// Annotation validates the //mpq: directives themselves: a directive
// that is misspelled, has an argument or sits on the wrong kind of
// declaration would otherwise be silently ignored by the
// consuming analyzers — the most dangerous failure mode for an
// annotation-driven checker. The judging happens while the package's
// directive index is built (collectAnnotations); this analyzer reports
// what that walk rejected.
var Annotation = &Analyzer{
	Name: "annotation",
	Doc: "validate //mpq: directives: known name, no argument, legal anchor " +
		"(a misspelled invariant must not silently stop being checked)",
	Run: func(pass *Pass) {
		for _, p := range pass.annotations().problems {
			pass.Reportf(p.Pos, "%s", p.Message)
		}
	},
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
	onFunc  bool
	onField bool
	onFree  bool
	anchor  string // where the directive goes, for messages
}

var mpqDirectiveSpecs = map[string]mpqDirectiveSpec{
	"confined":  {onFunc: true, onField: true, anchor: "a func, struct field or package var"},
	"entry":     {onFunc: true, anchor: "a func"},
	"noescape":  {onFunc: true, anchor: "a func"},
	"waitpoint": {onFree: true, anchor: "(or above) a statement inside a function body"},
}

// checkDirective judges one parsed directive against its anchor and
// returns what is wrong with it, or "".
func checkDirective(d mpqDirective, kind anchorKind) string {
	spec, known := mpqDirectiveSpecs[d.name]
	if !known {
		return fmt.Sprintf("unknown //mpq: directive %q; known directives: %s", d.name, knownDirectiveNames())
	}
	usage := fmt.Sprintf("//mpq:%s on %s", d.name, spec.anchor)
	if d.args != "" {
		return fmt.Sprintf("//mpq:%s takes no argument, got %q; usage: %s", d.name, d.args, usage)
	}
	legal := (kind == anchorFunc && spec.onFunc) ||
		(kind == anchorMember && spec.onField) ||
		(kind == anchorFree && spec.onFree)
	if !legal {
		return fmt.Sprintf("//mpq:%s is misplaced here (it would be silently ignored); usage: %s", d.name, usage)
	}
	return ""
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
