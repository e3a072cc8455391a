package measuredb

import (
	"bytes"
	"encoding/hex"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"paratune/internal/space"
)

// goldenFiles holds the committed PMDBWAL1 byte vector of goldenFill's
// store, as a "name hex" line.
const goldenFiles = "testdata/files.golden"

// goldenFill fills a fresh store in dir: three points with K=3 seeded
// observations each, the third point's arriving from a peer origin through
// Apply. Every "golden" frame arrives before every "peer" frame, so the
// arrival order is already the (origin, seq) order Compact writes.
func goldenFill(t *testing.T, dir string) *Store {
	t.Helper()
	st, err := Open(dir, Options{Seed: 3, Origin: "golden", Space: "space{x:integer[0,8],y:discrete{1,2,4}}"})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 3; i++ {
		p := space.Point{float64(2 * i), float64(int(1) << i)}
		for k := 0; k < 3; k++ {
			v := 1 + rng.ExpFloat64()
			if i < 2 {
				st.Observe(p, v)
				continue
			}
			if _, err := st.Apply(Frame{Origin: "peer", Seq: uint64(k + 1), Point: p, Value: v}); err != nil {
				t.Fatal(err)
			}
		}
	}
	return st
}

// storeContent is a store's logical content: raw observations per point and
// the per-origin digests.
type storeContent struct {
	Points []space.Point
	Obs    [][]float64
	Digest []OriginDigest
}

func contentOf(st *Store) storeContent {
	var c storeContent
	st.ForEachRaw(func(p space.Point, obs []float64) {
		c.Points = append(c.Points, append(space.Point(nil), p...))
		c.Obs = append(c.Obs, append([]float64(nil), obs...))
	})
	c.Digest = st.Digest()
	return c
}

// TestFilesGoldenBytes pins the on-disk format against a committed byte
// vector: the seeded fill writes exactly the golden WAL, Compact rewrites it
// to the same bytes, and a store opened from the golden file reads back the
// fill's content.
func TestFilesGoldenBytes(t *testing.T) {
	golden := readGolden(t, goldenFiles)
	if len(golden) != 1 {
		t.Errorf("%s holds %d vectors, want 1", goldenFiles, len(golden))
	}
	dir := t.TempDir()
	st := goldenFill(t, dir)
	want := contentOf(st)
	walPath := filepath.Join(dir, walFileName)
	for _, stage := range []string{"fill", "compact"} {
		if stage == "compact" {
			if err := st.Compact(); err != nil {
				t.Fatal(err)
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
		}
		got, err := os.ReadFile(walPath)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, golden["wal"]) {
			t.Errorf("WAL after %s changed:\n got %x\nwant %x", stage, got, golden["wal"])
		}
	}

	d := t.TempDir()
	if err := os.WriteFile(filepath.Join(d, walFileName), golden["wal"], 0o644); err != nil {
		t.Fatal(err)
	}
	re, err := Open(d, Options{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if re.Recovery() != nil {
		t.Errorf("golden file needed recovery: %+v", re.Recovery())
	}
	if got := contentOf(re); !reflect.DeepEqual(got, want) {
		t.Errorf("decoded content mismatch:\n got %+v\nwant %+v", got, want)
	}
	if re.Seed() != 3 || re.Origin() != "golden" || re.SpaceSig() != "space{x:integer[0,8],y:discrete{1,2,4}}" {
		t.Errorf("header decoded as seed %d origin %q space %q", re.Seed(), re.Origin(), re.SpaceSig())
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
}

// readGolden parses a "name hex" vector file.
func readGolden(t *testing.T, path string) map[string][]byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte)
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		name, hx, ok := strings.Cut(line, " ")
		b, err := hex.DecodeString(hx)
		if !ok || err != nil {
			t.Fatalf("%s: bad line %q", path, line)
		}
		out[name] = b
	}
	return out
}
