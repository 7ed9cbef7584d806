// Package blocking exercises the driver-loop blocking discipline:
// run-loop-domain code must not block outside the //mpq:waitpoint.
package blocking

import (
	"net"
	"sync"
	"time"
)

// udpConn mirrors the live driver's UDPConn interface: the same
// blocking read hidden behind interface dispatch.
type udpConn interface {
	ReadFromUDPAddrPort(b []byte) (int, int, error)
}

type loop struct {
	mu    sync.Mutex
	wg    sync.WaitGroup
	ch    chan int
	done  chan struct{}
	sock  *net.UDPConn
	isock udpConn
}

// Run's select is the designated wait point: exempt despite having no
// default clause.
//
//mpq:entry run-loop
func (l *loop) Run() {
	for {
		//mpq:waitpoint
		select {
		case v := <-l.ch:
			l.handle(v)
		case <-l.done:
			return
		}
	}
}

// handle inherits {run-loop} from Run; every blocking construct in it
// is an error.
func (l *loop) handle(v int) {
	l.ch <- v                    // want `blocking channel send in run-loop code`
	<-l.done                     // want `blocking channel receive in run-loop code`
	time.Sleep(time.Millisecond) // want `time\.Sleep stalls the run loop`
	l.mu.Lock()                  // want `mutex acquisition in run-loop code`
	l.wg.Wait()                  // want `sync\.WaitGroup\.Wait blocks the run loop`
	select {                     // want `blocking select \(no default\) in run-loop code`
	case <-l.done:
	}
	for range l.ch { // want `range over a channel blocks run-loop code`
	}
	l.poll()
	l.readSock(make([]byte, 16))
	l.readIface(make([]byte, 16))
}

// poll is the sanctioned non-blocking pattern: select with default.
func (l *loop) poll() {
	select {
	case v := <-l.ch:
		_ = v
	case l.ch <- 0:
	default:
	}
}

// readSock performs the one syscall readers own, from the wrong
// domain.
func (l *loop) readSock(b []byte) {
	l.sock.Read(b) // want `blocking socket read in run-loop code`
}

// readIface performs the same forbidden read through an interface —
// how the fault-tolerant driver actually holds its sockets.
func (l *loop) readIface(b []byte) {
	l.isock.ReadFromUDPAddrPort(b) // want `blocking socket read in run-loop code`
}

// Idle blocks freely: it is not in the run-loop domain.
func (l *loop) Idle() {
	<-l.done
	l.mu.Lock()
}
