package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"paratune/internal/objective"
)

// childEnv makes the test binary run gs2gen's main instead of the tests, so
// the end-to-end test drives the real command (flags, file and stdout
// output) without building a separate binary.
const childEnv = "GS2GEN_TEST_CHILD"

func TestMain(m *testing.M) {
	if os.Getenv(childEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// gs2gen runs the command with args and returns its stdout.
func gs2gen(t *testing.T, args ...string) []byte {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("gs2gen %v: %v\n%s", args, err, stderr.Bytes())
	}
	return out
}

// TestGS2GenGoldenDigest pins the database gs2gen writes for the default
// seed and coverage. Every value in it is drawn from the generator's seeded
// RNG streams, so the digest moves if any stream does.
func TestGS2GenGoldenDigest(t *testing.T) {
	const want = "a310122c46bbf646f22198758fc1939723fe04aa44591f5b49cc150b26f30fd5"
	path := filepath.Join(t.TempDir(), "gs2.csv")
	summary := gs2gen(t, "-seed", "42", "-coverage", "0.85", "-out", path)
	if !strings.HasPrefix(string(summary), "wrote 9831 measurements to "+path) {
		t.Errorf("summary line %q, want 9831 measurements written to %s", summary, path)
	}
	csv, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(csv)
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Fatalf("gs2gen -seed 42 -coverage 0.85 digest %s, golden %s", got, want)
	}

	if stdout := gs2gen(t, "-seed", "42", "-coverage", "0.85", "-out", "-"); !bytes.Equal(stdout, csv) {
		t.Errorf("-out - wrote %d bytes differing from the %d-byte file", len(stdout), len(csv))
	}

	db, err := objective.LoadDB(objective.GS2Space(), 0, bytes.NewReader(csv))
	if err != nil {
		t.Fatalf("loading gs2gen output: %v", err)
	}
	if db.Len() != 9831 {
		t.Errorf("loaded %d measurements, want 9831", db.Len())
	}
}
