package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain doubles as the command: with EXPERIMENTS_ARGS set, the test
// binary runs main with those arguments, so a test can observe the real
// exit code and stderr of a flag-validation failure.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("EXPERIMENTS_ARGS"); ok {
		os.Args = append([]string{"experiments"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func TestBadMachineSizeFlags(t *testing.T) {
	for _, tc := range []struct {
		args, stderr string
	}{
		{"-cores 0 fig8", "experiments: invalid cores 0: want 1..64\n"},
		{"-cores -3 fig8", "experiments: invalid cores -3: want 1..64\n"},
		{"-cores 65 fig8", "experiments: invalid cores 65: want 1..64\n"},
		{"-cores 100000 fig8", "experiments: invalid cores 100000: want 1..64\n"},
		{"-scale 0 fig8", "experiments: invalid scale 0: want at least 1\n"},
		{"-scale -8 fig8", "experiments: invalid scale -8: want at least 1\n"},
		{"-parallel -1 fig8", "experiments: invalid parallel -1: want at least 0\n"},
		{"-mc-workers -2 fig8", "experiments: invalid mc-workers -2: want at least 0\n"},
		{"-banks -3 fig8", "experiments: invalid banks -3: want at least 0\n"},
		{"-bank-queue -1 fig8", "experiments: invalid bank-queue -1: want at least 0\n"},
		{"-bank-drain -1 fig8", "experiments: invalid bank-drain -1: want at least 0\n"},
	} {
		t.Run(tc.args, func(t *testing.T) {
			cmd := exec.Command(os.Args[0], "-test.run=^$")
			cmd.Env = append(os.Environ(), "EXPERIMENTS_ARGS="+tc.args)
			var stdout, stderr strings.Builder
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			err := cmd.Run()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 2 {
				t.Fatalf("exit = %v, want status 2", err)
			}
			if stderr.String() != tc.stderr {
				t.Errorf("stderr = %q, want %q", stderr.String(), tc.stderr)
			}
			if stdout.Len() != 0 {
				t.Errorf("stdout = %q, want nothing", stdout.String())
			}
		})
	}
}
