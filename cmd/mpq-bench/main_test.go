package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// invoke runs one command line in-process, the way main does.
func invoke(args ...string) (stdout, stderr string, exit int) {
	var out, errw bytes.Buffer
	exit = cli(args, &out, &errw)
	return out.String(), errw.String(), exit
}

func TestRunCompletesOnEveryStack(t *testing.T) {
	for _, proto := range []string{"tcp", "quic", "mptcp", "mpquic"} {
		out, _, exit := invoke("run", "-proto", proto, "-size", "0.1")
		if exit != 0 || !strings.Contains(out, "completed in") ||
			!strings.Contains(out, "protocol: "+strings.ToUpper(proto)+" ") {
			t.Errorf("run -proto %s: exit %d\n%s", proto, exit, out)
		}
	}
}

func TestRunReportsAnIncompleteTransfer(t *testing.T) {
	out, _, exit := invoke("run", "-size", "0.01", "-loss0", "1", "-loss1", "1")
	if exit != 1 || !strings.Contains(out, "DID NOT COMPLETE") || !strings.Contains(out, "received 0 of") {
		t.Fatalf("run over two dead paths: exit %d\n%s", exit, out)
	}
}

// handover without flags is the Fig. 11 experiment, so it must print
// the block `-exp fig11` prints; the ablation flag must reach the run.
func TestHandoverIsFig11(t *testing.T) {
	fig11, _, exit := invoke("-exp", "fig11", "-progress=false")
	if exit != 0 || !strings.Contains(fig11, "PATHS frame reached server: true") {
		t.Fatalf("-exp fig11: exit %d\n%s", exit, fig11)
	}
	if out, _, exit := invoke("handover"); exit != 0 || out != fig11 {
		t.Errorf("handover: exit %d, output differs from -exp fig11:\n%s", exit, out)
	}
	out, _, exit := invoke("handover", "-no-paths-frame")
	if exit != 0 || !strings.Contains(out, "PATHS frame reached server: false") {
		t.Errorf("handover -no-paths-frame: exit %d\n%s", exit, out)
	}
}

func TestTraceQlogIsJSONSeqAndDeterministic(t *testing.T) {
	args := []string{"trace", "-size", "0.1", "-qlog", "-seed", "7"}
	first, report, exit := invoke(args...)
	if exit != 0 || !strings.Contains(report, "completed in") {
		t.Fatalf("trace -qlog: exit %d, stderr:\n%s", exit, report)
	}
	lines := strings.Split(strings.TrimSuffix(first, "\n"), "\n")
	for i, line := range lines {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("qlog record %d is not JSON: %v\n%s", i, err, line)
		}
		if i == 0 && rec["qlog_format"] != "JSON-SEQ" {
			t.Fatalf("qlog header: %s", line)
		}
	}
	if len(lines) < 100 {
		t.Fatalf("qlog of a 100 KB transfer has %d records", len(lines))
	}
	if again, _, _ := invoke(args...); again != first {
		t.Error("two traces of the same seed differ")
	}
}

// The TCP stacks are traceable too, which the binary this subcommand
// replaced could not do.
func TestTraceCoversTheTCPStacks(t *testing.T) {
	for _, proto := range []string{"tcp", "mptcp"} {
		out, _, exit := invoke("trace", "-proto", proto, "-size", "0.1")
		if exit != 0 || !strings.Contains(out, "handshake_done") {
			t.Errorf("trace -proto %s: exit %d\n%.300s", proto, exit, out)
		}
	}
}

func TestTraceEventsAndSide(t *testing.T) {
	// path_opened carries local->remote, so it tells the endpoints apart.
	for side, local := range map[string]string{"client": "10.0.1.1:", "server": "10.0.1.100:"} {
		out, _, exit := invoke("trace", "-size", "0.1", "-events", "path_opened", "-side", side)
		lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
		if exit != 0 || len(lines) != 2 {
			t.Fatalf("trace -events path_opened -side %s: exit %d, want one line per path:\n%s", side, exit, out)
		}
		if !strings.Contains(lines[0], "path_opened") || !strings.Contains(lines[0], " "+local) {
			t.Errorf("-side %s traced another endpoint: %s", side, lines[0])
		}
	}
	// A scripted kill shows up as the link's own event, in time order.
	out, _, _ := invoke("trace", "-size", "1", "-events", "link_down,path_potentially_failed", "-kill-at", "200ms")
	down, pf := strings.Index(out, "link_down"), strings.Index(out, "path_potentially_failed")
	if down < 0 || pf < down {
		t.Errorf("trace -kill-at: want link_down, then path_potentially_failed:\n%s", out)
	}
}

func TestMisuseExitsTwo(t *testing.T) {
	for _, args := range [][]string{
		{"frobnicate"},
		{"run", "-no-such-flag"},
		{"run", "-proto", "sctp"},
		{"trace", "-side", "both"},
		{"handover", "-mode", "melt"},
		{"-no-such-flag"},
		{"-exp", "fig99"},
	} {
		if out, stderr, exit := invoke(args...); exit != 2 || out != "" || stderr == "" {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want 2 with a message on stderr only", args, exit, out, stderr)
		}
	}
}
