// Package confine exercises the goroutine-confinement analyzer: a
// //mpq:confined member may only be touched by code whose computed
// domain set is exactly its domain, rooted at //mpq:entry functions.
package confine

type loop struct {
	//mpq:confined run-loop
	state int
	wake  chan struct{} // unannotated: a crossing
}

// New builds the loop; composite-literal construction is exempt (the
// value is not shared yet).
func New() *loop {
	return &loop{state: 1, wake: make(chan struct{}, 1)}
}

// Run roots the run-loop domain: the calling goroutine becomes it.
//
//mpq:entry run-loop
func (l *loop) Run() {
	l.state++ // ok: exactly the run-loop domain
	l.helper()
	l.shared()
}

// helper is unexported and reached only from Run: it inherits
// {run-loop} and may touch confined state.
func (l *loop) helper() {
	l.state++
}

// read roots the reader domain.
//
//mpq:entry reader
func (l *loop) read() {
	l.shared()
}

// shared is reached from both Run and read, so its domain set is
// {run-loop, reader} — touching run-loop state from it is a bug.
func (l *loop) shared() {
	l.state++ // want `confined member state \(domain run-loop\) is accessed from code reachable outside its domain \(reader\)`
}

// Poke is exported and unannotated: any goroutine may call it.
func (l *loop) Poke() {
	l.state++ // want `confined member state \(domain run-loop\) is accessed from code reachable outside its domain \(any goroutine\)`
}

// RunBad spawns a goroutine from inside the run loop; the spawned
// literal runs on its own goroutine, not in the run-loop domain.
//
//mpq:entry run-loop
func (l *loop) RunBad() {
	go func() {
		l.state++ // want `confined member state`
	}()
}

// Wake crosses domains through the annotated channel: clean.
func (l *loop) Wake() {
	select {
	case l.wake <- struct{}{}:
	default:
	}
}

// Step is a confined function: body in run-loop, callers must already
// be there.
//
//mpq:confined run-loop
func (l *loop) Step() { l.state++ }

// Outside calls the confined function from the any-goroutine domain.
func (l *loop) Outside() {
	l.Step() // want `confined function Step \(domain run-loop\) is called from code reachable outside its domain \(any goroutine\)`
}

//mpq:confined run-loop
var sharedCounter int

// bump inherits {run-loop} from Run2 below.
func bump() { sharedCounter++ }

//mpq:entry run-loop
func Run2() { bump() }

// BumpAnywhere touches the confined package var from any goroutine.
func BumpAnywhere() {
	sharedCounter++ // want `confined member sharedCounter \(domain run-loop\)`
}
