// Package stream implements QUIC stream machinery: byte-interval
// bookkeeping, send streams with retransmission queues, receive streams
// with reassembly, and stream-/connection-level flow control.
//
// Streams support a synthetic-payload mode used by the benchmark
// harness: applications can write N logical bytes without materializing
// them, so a 20 MB transfer costs O(intervals) memory instead of 20 MB.
// Byte accounting is identical in both modes.
package stream

import (
	"fmt"
	"sort"
)

// Interval is a half-open byte range [Start, End).
type Interval struct {
	Start, End uint64
}

// Len returns the interval length.
func (iv Interval) Len() uint64 { return iv.End - iv.Start }

// IntervalSet is a sorted, coalesced set of half-open intervals.
// The zero value is an empty set.
type IntervalSet struct {
	ivs []Interval
}

// Empty reports whether the set contains no bytes.
func (s *IntervalSet) Empty() bool { return len(s.ivs) == 0 }

// Size returns the total number of bytes covered.
func (s *IntervalSet) Size() uint64 {
	var n uint64
	for _, iv := range s.ivs {
		n += iv.Len()
	}
	return n
}

// Intervals returns the underlying sorted intervals (do not mutate).
func (s *IntervalSet) Intervals() []Interval { return s.ivs }

// Add inserts [start, end), coalescing with neighbors. The set is
// edited in place: once the backing array has room, Add allocates
// nothing.
//
//mpq:noescape
func (s *IntervalSet) Add(start, end uint64) {
	if start >= end {
		return
	}
	// [i, j) are the intervals the new one touches or overlaps: i is
	// the first with End >= start (binary search — the ACK manager's
	// set holds up to hundreds of intervals and mostly grows at the
	// tail), j the first past i with Start > end.
	i := sort.Search(len(s.ivs), func(i int) bool { return s.ivs[i].End >= start })
	j := i
	for j < len(s.ivs) && s.ivs[j].Start <= end {
		j++
	}
	if i == j {
		// Touches nothing: open a slot at i.
		s.ivs = append(s.ivs, Interval{})
		copy(s.ivs[i+1:], s.ivs[i:])
		s.ivs[i] = Interval{start, end}
		return
	}
	// Merge [i, j) into one interval at i and close the gap.
	if s.ivs[i].Start < start {
		start = s.ivs[i].Start
	}
	if s.ivs[j-1].End > end {
		end = s.ivs[j-1].End
	}
	s.ivs[i] = Interval{start, end}
	s.ivs = append(s.ivs[:i+1], s.ivs[j:]...)
}

// Remove deletes [start, end) from the set, splitting as needed. Like
// Add it edits the set in place; only a split that finds the backing
// array full allocates.
func (s *IntervalSet) Remove(start, end uint64) {
	if start >= end {
		return
	}
	// [i, j) are the intervals overlapping [start, end).
	i := sort.Search(len(s.ivs), func(i int) bool { return s.ivs[i].End > start })
	j := i
	for j < len(s.ivs) && s.ivs[j].Start < end {
		j++
	}
	if i == j {
		return
	}
	// At most two remnants survive: the part of the first overlapped
	// interval below start and the part of the last one above end.
	left, right := s.ivs[i], s.ivs[j-1]
	k := i
	if left.Start < start {
		k++
	}
	if right.End > end {
		k++
	}
	// Resize the overlapped span [i, j) to the k-i remnants.
	switch {
	case k > j: // one interval split in two: open one slot
		s.ivs = append(s.ivs, Interval{})
		copy(s.ivs[k:], s.ivs[j:])
	case k < j:
		s.ivs = append(s.ivs[:k], s.ivs[j:]...)
	}
	if left.Start < start {
		s.ivs[i] = Interval{left.Start, start}
		i++
	}
	if right.End > end {
		s.ivs[i] = Interval{end, right.End}
	}
}

// Contains reports whether every byte of [start, end) is in the set.
// O(log n): the intervals are sorted and disjoint, so only the first
// interval ending past start can cover the range.
func (s *IntervalSet) Contains(start, end uint64) bool {
	if start >= end {
		return true
	}
	i := sort.Search(len(s.ivs), func(i int) bool { return s.ivs[i].End > start })
	if i == len(s.ivs) {
		return false
	}
	iv := s.ivs[i]
	return iv.Start <= start && end <= iv.End
}

// FirstMissingFrom returns the first byte >= from not covered by the
// set (i.e. the reassembly frontier when from is the read offset).
func (s *IntervalSet) FirstMissingFrom(from uint64) uint64 {
	i := sort.Search(len(s.ivs), func(i int) bool { return s.ivs[i].End > from })
	if i == len(s.ivs) || s.ivs[i].Start > from {
		return from
	}
	return s.ivs[i].End
}

// Pop removes and returns up to maxLen bytes from the lowest interval.
// It returns a zero interval when the set is empty.
func (s *IntervalSet) Pop(maxLen uint64) Interval {
	if len(s.ivs) == 0 || maxLen == 0 {
		return Interval{}
	}
	iv := s.ivs[0]
	if iv.Len() <= maxLen {
		s.ivs = s.ivs[1:]
		return iv
	}
	taken := Interval{iv.Start, iv.Start + maxLen}
	s.ivs[0].Start = taken.End
	return taken
}

func (s *IntervalSet) String() string { return fmt.Sprint(s.ivs) }
