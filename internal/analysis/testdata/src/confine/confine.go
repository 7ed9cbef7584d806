// Package confine exercises the goroutine-confinement analyzer: only
// code the run loop reaches, and nothing else, may touch a member marked
// //mpq:confined; the loop roots at each function marked //mpq:entry.
package confine

type loop struct {
	//mpq:confined
	state int
	wake  chan struct{} // unannotated: a crossing
}

// New builds the loop and starts its reader; composite-literal
// construction is exempt (the value is not shared yet).
func New() *loop {
	l := &loop{state: 1, wake: make(chan struct{}, 1)}
	go l.read()
	return l
}

// Run roots the run loop: the calling goroutine becomes it.
//
//mpq:entry
func (l *loop) Run() {
	l.state++ // ok: only the run loop reaches Run
	l.helper()
	l.shared()
}

// helper is unexported and reached only from Run: it runs on the loop
// and may touch confined state.
func (l *loop) helper() {
	l.state++
}

// read runs on the goroutine New launches it on, not on the loop.
func (l *loop) read() {
	l.shared()
}

// shared is reached from both Run and read, so it runs on the loop and
// elsewhere — touching run-loop state from it is a bug.
func (l *loop) shared() {
	l.state++ // want `confined member state is accessed from code reachable outside the run loop`
}

// Poke is exported and unannotated: any goroutine may call it.
func (l *loop) Poke() {
	l.state++ // want `confined member state is accessed from code reachable outside the run loop`
}

// RunBad spawns a goroutine from inside the run loop; the spawned
// literal runs on its own goroutine, not on the loop.
//
//mpq:entry
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

// Step is a confined function: body on the loop, callers must already
// be there.
//
//mpq:confined
func (l *loop) Step() { l.state++ }

// Outside calls the confined function from any goroutine.
func (l *loop) Outside() {
	l.Step() // want `confined function Step is called from code reachable outside the run loop`
}

//mpq:confined
var sharedCounter int

// bump runs on the loop: only Run2 below reaches it.
func bump() { sharedCounter++ }

//mpq:entry
func Run2() { bump() }

// BumpAnywhere touches the confined package var from any goroutine.
func BumpAnywhere() {
	sharedCounter++ // want `confined member sharedCounter is accessed`
}
