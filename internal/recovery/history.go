package recovery

import "mpquic/internal/slab"

// Settler is what a History asks of its records: whether the sender
// has settled one, by acknowledgment or by declaring it lost.
type Settler interface{ Settled() bool }

// History is a sender's in-flight log, the storage rule a QUIC
// packet-number space (Space) and a TCP-family flow (tcpsim.Flow)
// share: records in transmission order, each settled in place by its
// owner, with the settled front trimmed off. How an ACK names what it
// covers — packet-number ranges, or a cumulative ack and SACK blocks —
// stays with the owner.
//
// Trim keeps the settled records that wait behind an unsettled front.
// Both owners declare a record lost once a transmission PacketThreshold
// or more after it is acknowledged, so after any of their calls at most
// PacketThreshold-1 of them wait, and the log holds what is in flight
// plus that many.
//
// A trimmed record is handed out again by Next, but only after the next
// Reclaim. The owner calls Reclaim when it begins a call whose result
// replaces the one that may still name the records trimmed before it,
// so a record lives as long as it is in flight plus one such call.
//
// Records come from, and go back to, the slab.List the owner hands
// NewHistory: a log that grows to k records in flight costs
// O(log k + k/slab) allocations, not k. The list may outlive the
// history: every connection a core.Listener accepts draws from the
// listener's, and Release hands its records back when it ends, with
// the log's two arrays, which the next history starts from.
type History[R any, P interface {
	*R
	Settler
}] struct {
	// recs[head:] is the log; recs[:head] is the trimmed, dead prefix
	// of the backing array.
	recs []*R
	head int
	// retired holds the records trimmed since the last Reclaim, free
	// the list Next draws from and Reclaim and Release return to.
	retired []*R
	free    *slab.List[R]
}

// NewHistory returns an empty history whose records, and the arrays
// that list them, come from free.
func NewHistory[R any, P interface {
	*R
	Settler
}](free *slab.List[R]) History[R, P] {
	return History[R, P]{recs: free.TakeLog(), retired: free.TakeLog(), free: free}
}

// Next returns a record for the caller to fill in and Add: a recycled
// one, or a zero one from the current slab.
func (h *History[R, P]) Next() *R { return h.free.Get() }

// Add appends a transmission to the log, which owns the record from
// here on.
func (h *History[R, P]) Add(p *R) {
	if len(h.recs) == cap(h.recs) && 2*h.head >= len(h.recs) {
		// Half the backing array is trimmed prefix: move the log down
		// into it instead of growing the array. Each record moves at
		// most once per time the array fills, so trimming stays
		// amortized O(1) per record.
		n := copy(h.recs, h.recs[h.head:])
		h.recs, h.head = h.recs[:n], 0
	}
	h.recs = append(h.recs, p)
}

// Live returns the log, oldest first; settled records linger in it
// until trimmed. The slice is valid until the next Add.
func (h *History[R, P]) Live() []*R { return h.recs[h.head:] }

// Trim drops the settled front of the log and retires it.
func (h *History[R, P]) Trim() {
	for h.head < len(h.recs) && P(h.recs[h.head]).Settled() {
		h.retired = append(h.retired, h.recs[h.head])
		h.head++
	}
	if h.head == len(h.recs) {
		h.recs, h.head = h.recs[:0], 0
	}
}

// Reclaim hands the records retired since the last Reclaim to Next: the
// result that could name them is no longer valid.
func (h *History[R, P]) Reclaim() {
	for _, p := range h.retired {
		h.free.Put(p)
	}
	h.retired = h.retired[:0]
}

// Release hands every record back to the free list, settled or not,
// retired or not, with the log's arrays, and empties the history. The
// owner calls it once no call follows and nothing names a record any
// more.
func (h *History[R, P]) Release() {
	h.Reclaim()
	for _, p := range h.Live() {
		h.free.Put(p)
	}
	h.free.PutLog(h.recs)
	h.free.PutLog(h.retired)
	h.recs, h.head, h.retired = nil, 0, nil
}

// Episode is the one-decrease-per-window filter both senders put on
// congestion events: a loss cuts the window only when the lost
// transmission left at or after the last cut, so the losses of one
// window cost one decrease. The zero Episode has made no cut.
type Episode struct {
	// end is the transmission number the sender would have given next
	// at the last cut; 0 before the first.
	end uint64
}

// Cut reports whether a loss whose latest lost transmission is numbered
// lost opens a new episode, and if so opens it; next is the number the
// sender's next transmission will take.
func (e *Episode) Cut(lost, next uint64) bool {
	if lost < e.end {
		return false
	}
	e.end = next
	return true
}
