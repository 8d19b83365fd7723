package main

import (
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain runs main() instead when FEDTRANS_EXPERIMENTS_MAIN=1 (see run).
func TestMain(m *testing.M) {
	if os.Getenv("FEDTRANS_EXPERIMENTS_MAIN") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// run executes this test binary as the experiments command.
func run(t *testing.T, args ...string) (failed bool, stdout, stderr string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "FEDTRANS_EXPERIMENTS_MAIN=1")
	var out, errOut strings.Builder
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	if _, ok := err.(*exec.ExitError); err != nil && !ok {
		t.Fatal(err)
	}
	return err != nil, out.String(), errOut.String()
}

func TestListNamesEveryExperiment(t *testing.T) {
	failed, stdout, _ := run(t, "-list")
	want := "available experiments:\n"
	for _, n := range strings.Fields("fig10a fig10b fig11d fig11w fig12 fig13 fig1a fig1b fig2 fig6 fig7 fig8 fig9 table1 table2 table3 table4 table5 table6 all") {
		want += "  " + n + "\n"
	}
	if failed || stdout != want {
		t.Errorf("-list: failed %v, stdout\n%s\nwant\n%s", failed, stdout, want)
	}
}

func TestUnknownValuesExitNonZero(t *testing.T) {
	for _, args := range [][]string{{"-exp", "fig99"}, {"-exp", "table2", "-scale", "huge"}} {
		failed, stdout, stderr := run(t, args...)
		if !failed || stdout != "" || !strings.Contains(stderr, `"`+args[len(args)-1]+`"`) {
			t.Errorf("%v: failed %v, stdout %q, stderr %q", args, failed, stdout, stderr)
		}
	}
}
