// Package slab is the free list the per-packet records of both
// transport families come from: a sender's in-flight history
// (recovery.History), struct-mode carriers (wire.PacketPool), TCP
// segments (tcpsim.Flow.NewSegment) and the clock's events (sim.Clock).
//
// A connection's first window costs one record per packet in flight,
// and records come back only as the window settles. Handing them out of
// slabs, arrays that double from minSlabBytes to maxSlabBytes, makes
// that warm-up cost a few allocations instead of one per record. A list
// may outlive the connections that draw from it: a core.Listener shares
// one among the connections it accepts and Shrinks it to a bound. The
// arrays that listed a connection's records (its logs) go back to the
// list with them, so the next connection does not grow its own anew.
package slab

import "unsafe"

// The first slab of a List takes about minSlabBytes, and each later one
// twice the one before, up to maxSlabBytes. A record larger than that
// gets a slab of its own.
const (
	minSlabBytes = 512
	maxSlabBytes = 8 << 10
)

// List is a free list of *T. Get hands out the record Put back last;
// when there is none, the list first lists every record of a new slab.
// A record keeps its address for as long as anything holds it. The zero
// List is ready to use. It is not safe for concurrent use.
type List[T any] struct {
	// free[:n] are the records to hand out, last in, first out; free[n:]
	// is room for Put and may still name records out on loan. A fixed
	// length is what makes Get cheap enough to inline.
	free []*T
	n    int
	next int // records in the next slab; 0 before the first
	// logs holds the emptied arrays PutLog took, for TakeLog.
	logs [][]*T
}

// Get lends a record. A fresh one is zero; one that was Put back holds
// whatever its last user left in it, so the caller resets what it reads.
func (l *List[T]) Get() *T {
	if l.n == 0 {
		l.grow()
	}
	l.n--
	return l.free[l.n]
}

// Put hands back a record Get lent, for a later Get. Nothing may use p
// afterwards, and p must not be Put twice: two later Gets would share it.
func (l *List[T]) Put(p *T) {
	if l.n == len(l.free) {
		l.free = append(l.free, p)
	} else {
		l.free[l.n] = p
	}
	l.n++
}

// PutLog hands back an array that listed records, for a later TakeLog
// to start a log from. It is emptied: the list keeps no record alive
// through it.
func (l *List[T]) PutLog(log []*T) {
	if cap(log) == 0 {
		return
	}
	clear(log[:cap(log)])
	l.logs = append(l.logs, log[:0])
}

// TakeLog returns the largest array PutLog handed back, empty, or nil
// when there is none.
func (l *List[T]) TakeLog() []*T {
	best := -1
	for i, log := range l.logs {
		if best < 0 || cap(log) > cap(l.logs[best]) {
			best = i
		}
	}
	if best < 0 {
		return nil
	}
	log := l.logs[best]
	last := len(l.logs) - 1
	l.logs[best], l.logs[last] = l.logs[last], nil
	l.logs = l.logs[:last]
	return log
}

// Len reports how many records wait for a Get without a new slab.
func (l *List[T]) Len() int { return l.n }

// Shrink keeps at most keep waiting records and leaves the rest to the
// collector: the list names none of them afterwards, so a slab goes
// once no record of it is named anywhere else. Of the logs, it keeps
// the largest while their room totals at most logKeep*keep records.
func (l *List[T]) Shrink(keep int) {
	if len(l.free) > keep {
		l.n = min(l.n, keep)
		l.free = append([]*T(nil), l.free[:l.n]...)
	}
	room := 0
	for _, log := range l.logs {
		room += cap(log)
	}
	for room > logKeep*keep {
		small := 0
		for i, log := range l.logs {
			if cap(log) < cap(l.logs[small]) {
				small = i
			}
		}
		room -= cap(l.logs[small])
		last := len(l.logs) - 1
		l.logs[small], l.logs[last] = l.logs[last], nil
		l.logs = l.logs[:last]
	}
}

// logKeep bounds the room Shrink keeps in logs, in records per record
// kept: a connection's logs — each path's in-flight log, the records it
// retired and the results of one ACK — list its window a few times.
const logKeep = 4

// grow lists the records of a new slab, the first of them last so that
// Get hands them out in address order. It is Get's cold path and stays
// out of line: wherever Get is inlined, the allocation is grow's, and a
// //mpq:noescape caller of Get stays allocation-free.
//
//go:noinline
func (l *List[T]) grow() {
	var zero T
	size := max(int(unsafe.Sizeof(zero)), 1)
	if l.next == 0 {
		l.next = max(minSlabBytes/size, 1)
	}
	s := make([]T, min(l.next, max(maxSlabBytes/size, 1)))
	if len(l.free) < len(s) {
		l.free = make([]*T, len(s))
	}
	for i := range s {
		l.free[len(s)-1-i] = &s[i]
	}
	l.n = len(s)
	l.next = 2 * len(s)
}
