// Package annotation exercises the //mpq: directive validator: a
// misspelled or mis-placed directive, or one with an argument, would be
// silently ignored by the consuming analyzers, so each is an error
// here.
package annotation

type state struct {
	//mpq:crossing // want `unknown //mpq: directive "crossing"`
	free chan []byte
	//mpq:confined // the clean member form, with a rationale
	counter int
}

//mpq:confinned // want `unknown //mpq: directive "confinned"`
var typo int

// The forms that named a goroutine domain: the run loop is implied.
//
//mpq:confined run-loop // want `//mpq:confined takes no argument, got "run-loop"`
var namedDomain int

//mpq:entry reader // want `//mpq:entry takes no argument, got "reader"`
func namedEntry() {}

//mpq:noescape // want `//mpq:noescape is misplaced here`
var misplacedNoescape int

//mpq:entry // want `//mpq:entry is misplaced here`
var misplacedEntry int

//mpq:waitpoint // want `//mpq:waitpoint is misplaced here`
func waitpointOnFunc(ch chan int) {
	// The legal form: on (or above) a statement in a body.
	//mpq:waitpoint
	<-ch
}

//mpq:noescape
func cleanNoescape() {}

//mpq:entry
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
