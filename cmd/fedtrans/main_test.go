package main

import (
	"os"
	"os/exec"
	"strings"
	"testing"

	"fedtrans"
)

// TestMain doubles as the CLI harness: when FEDTRANS_CLI_MAIN is set the
// test binary runs the real main() against its own arguments, so tests
// can exercise flag parsing, validation, and exit codes without a
// separate build step.
func TestMain(m *testing.M) {
	if os.Getenv("FEDTRANS_CLI_MAIN") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// runCLI executes this test binary as the fedtrans CLI with the given
// arguments, returning its exit code, stdout and stderr.
func runCLI(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "FEDTRANS_CLI_MAIN=1")
	var out, errOut strings.Builder
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	if err == nil {
		return 0, out.String(), errOut.String()
	}
	if ee, ok := err.(*exec.ExitError); ok {
		return ee.ExitCode(), out.String(), errOut.String()
	}
	t.Fatalf("running CLI: %v", err)
	return -1, "", ""
}

func TestCLIRejectsInvalidNumericFlags(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string // substring of the stderr diagnostic
	}{
		{"zero agent workers", []string{"-agent", "127.0.0.1:1", "-agent-workers", "0"}, "workers"},
		{"negative population", []string{"-population", "-5"}, "Population"},
		{"negative eval sample", []string{"-eval-sample", "-2"}, "EvalSample"},
		{"zero clients", []string{"-clients", "0"}, "Clients"},
		{"zero participants", []string{"-participants", "0"}, "ClientsPerRound"},
		{"negative rounds", []string{"-rounds", "-1"}, "Rounds"},
		{"zero heterogeneity", []string{"-h", "0"}, "Heterogeneity"},
		{"negative staleness", []string{"-max-staleness", "-1"}, "MaxStaleness"},
		{"negative checkpoint cadence", []string{"-checkpoint-every", "-3"}, "CheckpointEvery"},
		{"negative heads", []string{"-heads", "-2"}, "AttentionHeads"},
		{"non-numeric flag value", []string{"-clients", "many"}, "invalid value"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, _, stderr := runCLI(t, tc.args...)
			if code != 2 {
				t.Fatalf("exit code = %d, want 2 (stderr: %s)", code, stderr)
			}
			if !strings.Contains(stderr, tc.want) {
				t.Errorf("stderr %q does not mention %q", stderr, tc.want)
			}
		})
	}
}

// TestCLIEdgeValues: a flag value at the edge of its range is either
// refused — exit 2, the Options field named on stderr — or run exactly as
// given. Each of these used to be replaced by the default in silence.
func TestCLIEdgeValues(t *testing.T) {
	small := []string{"-clients", "12", "-participants", "4", "-rounds", "2"}
	_, seed1, _ := runCLI(t, append(small, "-seed", "1")...)
	cases := []struct {
		name   string
		args   []string
		reject string                // the field an exit 2 must name; "" when the run goes ahead
		used   func(out string) bool // on stdout, the evidence the value was used
	}{
		{"spread 1", []string{"-spread", "1"}, "", func(out string) bool { return strings.Contains(out, " disparity=1.0x\n") }},
		{"rounds 0", []string{"-rounds", "0"}, "", func(out string) bool { return strings.Contains(out, "\nrounds        : 0\n") }},
		{"seed 0", []string{"-seed", "0"}, "", func(out string) bool { return seed1 != "" && out != seed1 }},
		{"deepen 0", []string{"-deepen", "0"}, "DeepenCells", nil},
		{"widen 1", []string{"-widen", "1"}, "WidenFactor", nil},
		{"alpha 0", []string{"-alpha", "0"}, "Alpha", nil},
		{"beta 0", []string{"-beta", "0"}, "Beta", nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, stdout, stderr := runCLI(t, append(small, tc.args...)...)
			if tc.reject != "" {
				if code != 2 || !strings.Contains(stderr, tc.reject) {
					t.Errorf("exit %d, stderr %q: want exit 2 naming %s", code, stderr, tc.reject)
				}
				return
			}
			if code != 0 || !tc.used(stdout) {
				t.Errorf("exit %d (stderr %q), stdout:\n%s\nthe value was not used", code, stderr, stdout)
			}
		})
	}
}

func TestCLIValidationPassesDefaults(t *testing.T) {
	// Validation itself must not reject the default option set.
	s, err := fedtrans.NewSession(fedtrans.DefaultOptions())
	if err != nil {
		t.Fatalf("defaults rejected: %v", err)
	}
	s.Close()
}

func TestCLIHeadsRequiresAttentionProfile(t *testing.T) {
	// -heads on a non-attention profile is refused before any work, with
	// the field named.
	code, _, stderr := runCLI(t, "-profile", "femnist", "-heads", "4", "-rounds", "1")
	if code != 2 {
		t.Fatalf("exit code = %d, want 2 (stderr: %s)", code, stderr)
	}
	if !strings.Contains(stderr, "AttentionHeads") {
		t.Errorf("stderr %q does not mention AttentionHeads", stderr)
	}
}
