// Package annotation exercises the //mpq: directive validator: a
// misspelled, mis-placed or mis-aritied directive would be silently
// ignored by the consuming analyzers, so each is an error here.
package annotation

type state struct {
	//mpq:crossing // want `unknown //mpq: directive "crossing"`
	free chan []byte
	//mpq:confined run-loop // the clean member form, with a rationale
	counter int
}

//mpq:confinned run-loop // want `unknown //mpq: directive "confinned"`
var typo int

//mpq:confined // want `//mpq:confined takes 1 argument`
var missingArg int

//mpq:entry run-loop extra // want `//mpq:entry takes 1 argument`
func arityEntry() {}

//mpq:noescape // want `//mpq:noescape is misplaced here`
var misplacedNoescape int

//mpq:entry run-loop // want `//mpq:entry is misplaced here`
var misplacedEntry int

//mpq:waitpoint // want `//mpq:waitpoint is misplaced here`
func waitpointOnFunc(ch chan int) {
	// The legal form: on (or above) a statement in a body.
	//mpq:waitpoint
	<-ch
}

//mpq:noescape
func cleanNoescape() {}

//mpq:entry run-loop
func cleanEntry() {}

//mpq:bogus // want `unknown //mpq: directive "bogus"`
var bogus int

// One doc comment over a var block is judged once, not once per spec.
//
//mpq:noescape // want `//mpq:noescape is misplaced here`
var (
	blockA int
	blockB int
)
