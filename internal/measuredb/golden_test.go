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

// goldenFiles holds the committed PMDBWAL1 and PMDBSNP1 byte vectors of
// goldenFill's store, as "name hex" lines.
const goldenFiles = "testdata/files.golden"

// goldenFill fills a fresh store in dir: three points with K=3 seeded
// observations each, the third point's arriving from a peer origin through
// Apply so the snapshot's origin table has two entries.
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

// TestFilesGoldenBytes pins both on-disk formats against committed byte
// vectors: the seeded fill writes exactly the golden WAL and, once
// compacted, exactly the golden snapshot; a store opened from either file
// alone reads back the fill's content.
func TestFilesGoldenBytes(t *testing.T) {
	golden := readGolden(t, goldenFiles)
	dir := t.TempDir()
	st := goldenFill(t, dir)
	want := contentOf(st)
	wal, err := os.ReadFile(filepath.Join(dir, walFileName))
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	snap, err := os.ReadFile(filepath.Join(dir, snapFileName))
	if err != nil {
		t.Fatal(err)
	}
	for name, got := range map[string][]byte{"wal": wal, "snapshot": snap} {
		if !bytes.Equal(got, golden[name]) {
			t.Errorf("%s encoding changed:\n got %x\nwant %x", name, got, golden[name])
		}
	}
	if len(golden) != 2 {
		t.Errorf("%s holds %d vectors, want 2", goldenFiles, len(golden))
	}

	for name, file := range map[string]string{"wal": walFileName, "snapshot": snapFileName} {
		d := t.TempDir()
		if err := os.WriteFile(filepath.Join(d, file), golden[name], 0o644); err != nil {
			t.Fatal(err)
		}
		re, err := Open(d, Options{})
		if err != nil {
			t.Fatalf("%s: open: %v", name, err)
		}
		if re.Recovery() != nil {
			t.Errorf("%s: golden file needed recovery: %+v", name, re.Recovery())
		}
		if got := contentOf(re); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: decoded content mismatch:\n got %+v\nwant %+v", name, got, want)
		}
		if re.Seed() != 3 || re.Origin() != "golden" || re.SpaceSig() != "space{x:integer[0,8],y:discrete{1,2,4}}" {
			t.Errorf("%s: header decoded as seed %d origin %q space %q", name, re.Seed(), re.Origin(), re.SpaceSig())
		}
		if err := re.Close(); err != nil {
			t.Fatal(err)
		}
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
