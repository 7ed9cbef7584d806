package analysis

import (
	"go/ast"
	"go/types"
)

// Blocking enforces the driver-loop blocking discipline: code the run
// loop reaches (see confine.go) must never block outside its one
// designated wait point, or every queued packet behind the stall pays
// the latency — exactly the per-packet stalls the batched loop
// removed. Inside functions the run loop reaches, the analyzer flags
//
//   - channel sends/receives outside a select (`<-ch`, `ch <- v`),
//     `range ch`, and selects without a default clause, unless the
//     site carries `//mpq:waitpoint` (on or above the line);
//   - mutex acquisition (sync.Mutex/RWMutex Lock/RLock) and
//     sync.WaitGroup.Wait;
//   - time.Sleep and blocking socket reads (net.UDPConn Read*) — the
//     readers own those, not the loop.
//
// go-launched literals inside run-loop functions run on their own
// goroutine and are exempt, as is everything only other goroutines
// reach (the reader goroutines block in ReadFromUDPAddrPort by design).
var Blocking = &Analyzer{
	Name: "blocking",
	Doc: "forbid blocking channel ops, mutex acquisition and blocking syscalls " +
		"in code the run loop reaches outside the //mpq:waitpoint",
	Run: runBlocking,
}

// udpReadMethods are the blocking ingress reads of net.UDPConn.
var udpReadMethods = []string{
	"Read", "ReadFrom", "ReadFromUDP", "ReadFromUDPAddrPort",
	"ReadMsgUDP", "ReadMsgUDPAddrPort",
}

// udpIfaceReadMethods are the UDP-specific read names also policed on
// interface-typed receivers (live.UDPConn, faultnet.Conn): interface
// dispatch hides the concrete *net.UDPConn from methodOn, but the call
// blocks just the same. The generic names (Read, ReadFrom) stay
// concrete-only so every io.Reader in run-loop code is not indicted.
var udpIfaceReadMethods = []string{
	"ReadFromUDP", "ReadFromUDPAddrPort", "ReadMsgUDP", "ReadMsgUDPAddrPort",
}

func runBlocking(pass *Pass) {
	g := pass.reachGraph()
	if len(g.ann.loopRoot) == 0 {
		return // no run loop, nothing to police
	}
	for _, u := range g.units {
		if u.reach&onLoop != 0 {
			checkBlocking(pass, g, u)
		}
	}
}

// checkBlocking walks one run-loop unit. Select statements are handled
// as a whole (their comm clauses are not re-flagged individually).
func checkBlocking(pass *Pass, g *reachGraph, u *codeUnit) {
	info := pass.Info
	// inSelectComm holds the channel operations that are a select's
	// comm clauses; they are judged via the select, not on their own.
	inSelectComm := make(map[ast.Node]bool)
	u.walk(func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectStmt:
			hasDefault := false
			for _, clause := range n.Body.List {
				cc := clause.(*ast.CommClause)
				if cc.Comm == nil {
					hasDefault = true
					continue
				}
				markCommOps(cc.Comm, inSelectComm)
			}
			if !hasDefault && !g.ann.onWaitpoint(pass.Fset, n.Pos()) {
				pass.Reportf(n.Pos(),
					"blocking select (no default) in run-loop code; add a default, or mark the loop's "+
						"designated wait point with //mpq:waitpoint")
			}
		case *ast.SendStmt:
			if !inSelectComm[n] && !g.ann.onWaitpoint(pass.Fset, n.Pos()) {
				pass.Reportf(n.Pos(),
					"blocking channel send in run-loop code outside a select; use a select with default "+
						"or the //mpq:waitpoint")
			}
		case *ast.UnaryExpr:
			if n.Op.String() == "<-" && !inSelectComm[n] && !g.ann.onWaitpoint(pass.Fset, n.Pos()) {
				pass.Reportf(n.Pos(),
					"blocking channel receive in run-loop code outside a select; use a select with default "+
						"or the //mpq:waitpoint")
			}
		case *ast.RangeStmt:
			if t := info.TypeOf(n.X); t != nil {
				if _, isChan := t.Underlying().(*types.Chan); isChan && !g.ann.onWaitpoint(pass.Fset, n.Pos()) {
					pass.Reportf(n.Pos(), "range over a channel blocks run-loop code until the channel closes")
				}
			}
		case *ast.CallExpr:
			checkBlockingCall(pass, g, n)
		}
		return true
	})
}

// markCommOps records the channel operations that form a select comm
// clause (a send statement, or a receive possibly wrapped in an
// assignment or expression statement).
func markCommOps(comm ast.Stmt, set map[ast.Node]bool) {
	set[comm] = true
	ast.Inspect(comm, func(n ast.Node) bool {
		if ue, ok := n.(*ast.UnaryExpr); ok && ue.Op.String() == "<-" {
			set[ue] = true
		}
		return true
	})
}

// checkBlockingCall flags the call-shaped blockers.
func checkBlockingCall(pass *Pass, g *reachGraph, call *ast.CallExpr) {
	info := pass.Info
	if g.ann.onWaitpoint(pass.Fset, call.Pos()) {
		return
	}
	if pkgFunc(info, call, "time", "Sleep") {
		pass.Reportf(call.Pos(), "time.Sleep stalls the run loop; schedule a sim timer instead")
		return
	}
	if methodOn(info, call, "sync", "Mutex", "Lock") ||
		methodOn(info, call, "sync", "RWMutex", "Lock", "RLock") {
		pass.Reportf(call.Pos(),
			"mutex acquisition in run-loop code; the loop owns its state — cross goroutines with channels, not locks")
		return
	}
	if methodOn(info, call, "sync", "WaitGroup", "Wait") {
		pass.Reportf(call.Pos(), "sync.WaitGroup.Wait blocks the run loop until other goroutines finish")
		return
	}
	if methodOn(info, call, "net", "UDPConn", udpReadMethods...) ||
		ifaceMethodNamed(info, call, udpIfaceReadMethods...) {
		pass.Reportf(call.Pos(),
			"blocking socket read in run-loop code; reads belong to the reader goroutines")
		return
	}
}
