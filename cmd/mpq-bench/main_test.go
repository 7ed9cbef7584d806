package main

import (
	"bytes"
	"encoding/json"
	"regexp"
	"strings"
	"testing"

	"mpquic/internal/expdesign"
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

// A sampled grid rendered again from its artifacts prints what the run
// printed, evolution figure included.
func TestSampledGridRendersFromArtifacts(t *testing.T) {
	args := []string{"-exp", "fig9", "-scenarios", "2", "-progress=false", "-sample", "50ms", "-artifacts", t.TempDir()}
	ran, _, exit := invoke(args...)
	if exit != 0 || !strings.Contains(ran, "per-path evolution") {
		t.Fatalf("sampled grid: exit %d\n%s", exit, ran)
	}
	if out, stderr, exit := invoke(append(args, "-from-artifacts")...); exit != 0 || out != ran {
		t.Errorf("-from-artifacts: exit %d, stderr %q, output differs from the run:\n%s", exit, stderr, out)
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

// TestMisuseExitsTwo: misuse, including every value a run cannot take,
// exits 2 before anything runs or panics, with a message on stderr
// only that names what was wrong.
func TestMisuseExitsTwo(t *testing.T) {
	for _, c := range []struct {
		args  []string
		names string
	}{
		{[]string{"frobnicate"}, "frobnicate"},
		{[]string{"run", "-no-such-flag"}, "-no-such-flag"},
		{[]string{"run", "-proto", "sctp"}, "-proto"},
		{[]string{"trace", "-side", "both"}, "-side"},
		{[]string{"handover", "-mode", "melt"}, "-mode"},
		{[]string{"-no-such-flag"}, "-no-such-flag"},
		{[]string{"-exp", "fig99"}, "fig99"},
		{[]string{"-exp", "ablations", "-shard", "0/2"}, "-shard"},
		{[]string{"run", "-start", "2"}, "-start"},
		{[]string{"run", "-size", "-1"}, "-size"},
		{[]string{"run", "-size", "0"}, "-size"},
		{[]string{"run", "-cap0", "0"}, "-cap0"},
		{[]string{"run", "-cap1", "NaN"}, "-cap1"},
		{[]string{"run", "-rtt0", "-5ms"}, "-rtt0"},
		{[]string{"run", "-queue1", "-1ms"}, "-queue1"},
		{[]string{"run", "-loss0", "1.5"}, "-loss0"},
		{[]string{"run", "-loss1", "-0.1"}, "-loss1"},
		{[]string{"trace", "-cap1", "-3"}, "-cap1"},
		{[]string{"trace", "-start", "-1"}, "-start"},
		{[]string{"trace", "-flap-period", "1s", "-flap-outage", "2s"}, "-flap-outage"},
		{[]string{"handover", "-cap", "0"}, "-cap"},
		{[]string{"handover", "-rtt1", "-1ms"}, "-rtt1"},
		{[]string{"handover", "-mode", "oscillate", "-depth", "1.5"}, "-depth"},
		{[]string{"handover", "-depth", "0"}, "-depth"},
		{[]string{"handover", "-mode", "flap", "-period", "0s"}, "-outage"},
	} {
		if out, stderr, exit := invoke(c.args...); exit != 2 || out != "" || !strings.Contains(stderr, c.names) {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want 2 with a message naming %s on stderr only", c.args, exit, out, stderr, c.names)
		}
	}
}

// -exp ablations prints one row per knob × class × size, then one
// verdict per knob.
func TestAblationsPrintsEveryCell(t *testing.T) {
	out, _, exit := invoke("-exp", "ablations", "-scenarios", "1", "-reps", "1", "-progress=false")
	if exit != 0 {
		t.Fatalf("-exp ablations: exit %d\n%s", exit, out)
	}
	classes := []expdesign.Class{expdesign.LowBDPNoLoss, expdesign.LowBDPLosses, expdesign.HighBDPNoLoss, expdesign.HighBDPLosses}
	rows := 0
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) < 4 {
			continue
		}
		for _, k := range expdesign.Knobs {
			for _, c := range classes {
				for _, size := range []string{"20 MB", "256 KB"} {
					if f[0] == k.Name && f[1] == c.Name && f[2]+" "+f[3] == size {
						rows++
					}
				}
			}
		}
	}
	if want := len(expdesign.Knobs) * len(classes) * 2; rows != want {
		t.Errorf("%d rows, want %d:\n%s", rows, want, out)
	}
	for _, k := range expdesign.Knobs {
		if !regexp.MustCompile(`(?m)^  ` + regexp.QuoteMeta(k.Name) + ` +moves [0-8] of 8 cells: `).MatchString(out) {
			t.Errorf("no verdict for %s:\n%s", k.Name, out)
		}
	}
}
