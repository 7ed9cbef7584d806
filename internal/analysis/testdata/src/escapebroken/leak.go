// Package escapebroken is a module of its own (the escape gate needs
// something `go build -gcflags=-m` can compile) holding one
// //mpq:noescape function the gate must flag and one it must not.
package escapebroken

var sink *int

// leak's local must be heap-allocated: its address outlives the call.
//
//mpq:noescape
func leak() *int {
	x := 42
	return &x
}

// fine has nothing escaping.
//
//mpq:noescape
func fine(a, b int) int {
	return a + b
}

func keep() { sink = leak() }
