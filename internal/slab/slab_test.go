package slab

import (
	"math/bits"
	"testing"
	"unsafe"
)

// rec is a 64-byte record, the size of a TCP scoreboard record.
type rec struct{ a [8]uint64 }

func TestPutThenGetReturnsThePointer(t *testing.T) {
	var l List[rec]
	p := l.Get()
	p.a[0] = 7
	l.Put(p)
	if q := l.Get(); q != p {
		t.Fatalf("Get after Put returned %p, want %p", q, p)
	} else if q.a[0] != 7 {
		t.Fatalf("a record that came back holds %d, want what its user left (7)", q.a[0])
	}
}

// TestNoRecordOutTwice interleaves gets and puts across several slabs
// and requires every record out at one time to be distinct and every
// fresh one to be zero.
func TestNoRecordOutTwice(t *testing.T) {
	var l List[rec]
	out := make(map[*rec]bool)
	var order []*rec
	get := func() {
		p := l.Get()
		if out[p] {
			t.Fatalf("record %p handed out while still out", p)
		}
		out[p] = true
		order = append(order, p)
	}
	for round := 0; round < 100; round++ {
		for i := 0; i < 10*round+1; i++ {
			get()
		}
		// Put back every other record, oldest first.
		kept := order[:0]
		for i, p := range order {
			if i%2 == 0 {
				delete(out, p)
				p.a[0]++
				l.Put(p)
			} else {
				kept = append(kept, p)
			}
		}
		order = kept
	}
	if len(out) < 500 {
		t.Fatalf("only %d records out at the end; the test should span many slabs", len(out))
	}
}

// TestGetsCostSlabsNotRecords: k gets from an empty list allocate
// O(log k + k/slab) times — the slabs, doubling up to maxSlabBytes, and
// the free list's backing array — not once per record.
func TestGetsCostSlabsNotRecords(t *testing.T) {
	perSlab := maxSlabBytes / int(unsafe.Sizeof(rec{}))
	for _, k := range []int{1, 10, 100, 1000, 100000} {
		allocs := testing.AllocsPerRun(5, func() {
			var l List[rec]
			for i := 0; i < k; i++ {
				l.Get()
			}
		})
		bound := 2*bits.Len(uint(k)) + k/perSlab
		if allocs > float64(bound) {
			t.Errorf("%d gets from an empty list allocate %.0f times, want at most %d", k, allocs, bound)
		}
	}
}

// TestShrinkKeepsTheBound: after Shrink(keep) at most keep records wait,
// they are records that were waiting, and the list goes on lending and
// taking back as before.
func TestShrinkKeepsTheBound(t *testing.T) {
	var l List[rec]
	out := make([]*rec, 1000)
	for i := range out {
		out[i] = l.Get()
	}
	for _, p := range out {
		l.Put(p)
	}
	// What waits: those, and the rest of the last slab.
	waiting := make(map[*rec]bool)
	for l.Len() > 0 {
		waiting[l.Get()] = true
	}
	for p := range waiting {
		l.Put(p)
	}
	for _, keep := range []int{2000, 300, 300, 10, 0} {
		l.Shrink(keep)
		if l.Len() > keep {
			t.Fatalf("Shrink(%d) left %d records waiting", keep, l.Len())
		}
		got := make([]*rec, l.Len())
		for i := range got {
			if got[i] = l.Get(); !waiting[got[i]] {
				t.Fatalf("after Shrink(%d) the list lends %p, which was not waiting", keep, got[i])
			}
		}
		for _, p := range got {
			l.Put(p)
		}
	}
	if p := l.Get(); p == nil || waiting[p] {
		t.Fatal("an emptied list must lend a fresh record")
	}
}

// TestLogsComeBackEmptyLargestFirst: a log handed back comes back
// empty, cleared to its capacity, largest first, and Shrink keeps the
// largest while their room totals at most logKeep records per record
// kept.
func TestLogsComeBackEmptyLargestFirst(t *testing.T) {
	var l List[rec]
	if log := l.TakeLog(); log != nil {
		t.Fatalf("an empty list lends a log of %d", cap(log))
	}
	for _, n := range []int{10, 40, 20} {
		log := make([]*rec, n)
		for i := range log {
			log[i] = l.Get()
		}
		l.PutLog(log[:n/2])
	}
	l.PutLog(nil)
	for _, want := range []int{40, 20, 10} {
		log := l.TakeLog()
		if len(log) != 0 || cap(log) != want {
			t.Fatalf("TakeLog lent len %d cap %d, want an empty log of %d", len(log), cap(log), want)
		}
		for i, p := range log[:cap(log)] {
			if p != nil {
				t.Fatalf("entry %d of a log of %d still names a record", i, want)
			}
		}
	}
	if log := l.TakeLog(); log != nil {
		t.Fatalf("a fourth TakeLog lent a log of %d", cap(log))
	}
	for _, n := range []int{10, 40, 20} {
		l.PutLog(make([]*rec, n))
	}
	l.Shrink(15) // room for 60: the logs of 40 and 20
	for _, want := range []int{40, 20} {
		if log := l.TakeLog(); cap(log) != want {
			t.Fatalf("after Shrink, TakeLog lent a log of %d, want %d", cap(log), want)
		}
	}
	if log := l.TakeLog(); log != nil {
		t.Fatalf("Shrink kept a log of %d past its bound", cap(log))
	}
}

// BenchmarkListGet is one Get and one Put of a record that waits, the
// steady state of every slab user. Get is small enough to inline (see
// List.free); `go build -gcflags=-m=2 ./internal/sim ./internal/recovery`
// says so for each shape it is instantiated with.
func BenchmarkListGet(b *testing.B) {
	var l List[rec]
	l.Put(l.Get())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l.Put(l.Get())
	}
}
