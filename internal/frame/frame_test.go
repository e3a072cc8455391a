package frame

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"testing"

	"paratune/internal/alloccheck"
)

// testMax is the payload bound the envelope tests run under.
const testMax = 64

// readOne runs Read over b and reports the payload, the bytes consumed and
// the error.
func readOne(b []byte, max int) ([]byte, int, error) {
	rd := bytes.NewReader(b)
	br := bufio.NewReaderSize(rd, 16)
	var buf []byte
	payload, err := Read(br, max, &buf)
	return payload, len(b) - rd.Len() - br.Buffered(), err
}

// TestEnvelopeReadAndSplit runs every envelope case through the streaming
// reader, the slice splitter and the relay reader: Read and Split must agree
// on the payload, the bytes consumed and the error, and ReadRaw must fail
// where they do — a CRC mismatch aside, which a relay forwards — and
// otherwise return exactly the frame's bytes.
func TestEnvelopeReadAndSplit(t *testing.T) {
	valid := Append(nil, []byte("payload"))
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)-1] ^= 0x01
	cases := []struct {
		name    string
		in      []byte
		payload []byte
		n       int // bytes consumed on success
		err     error
	}{
		{"valid", valid, []byte("payload"), len(valid), nil},
		{"zero-length payload", Append(nil, nil), nil, 5, nil},
		{"valid then more", append(append([]byte(nil), valid...), 0xff), []byte("payload"), len(valid), nil},
		{"empty stream", nil, nil, 0, io.EOF},
		{"CRC mismatch", flipped, nil, len(valid), ErrCRC},
		{"length over max", append(binary.AppendUvarint(nil, testMax+1), 0, 0, 0, 0), nil, 0, ErrTooLarge},
		{"length over 64 bits", []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}, nil, 0, ErrMalformed},
		{"non-minimal length prefix", append([]byte{0x80, 0x00}, valid[1:]...), nil, 0, ErrMalformed},
		{"11-byte length prefix", []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x00}, nil, 0, ErrMalformed},
		{"unterminated 10-byte prefix", bytes.Repeat([]byte{0x80}, 10), nil, 0, ErrMalformed},
		{"truncated length prefix", []byte{0x85}, nil, 0, io.ErrUnexpectedEOF},
		{"truncated header", valid[:3], nil, 0, io.ErrUnexpectedEOF},
		{"truncated payload", valid[:len(valid)-1], nil, 0, io.ErrUnexpectedEOF},
	}
	sameErr := func(got, want error) bool { return errors.Is(got, want) && (got == nil) == (want == nil) }
	for _, c := range cases {
		for _, via := range []string{"Read", "Split"} {
			var payload []byte
			var n int
			var err error
			if via == "Read" {
				payload, n, err = readOne(c.in, testMax)
			} else {
				payload, n, err = Split(c.in, testMax)
			}
			if !sameErr(err, c.err) {
				t.Errorf("%s via %s: err = %v, want %v", c.name, via, err, c.err)
				continue
			}
			if err == nil && (!bytes.Equal(payload, c.payload) || n != c.n) {
				t.Errorf("%s via %s: (%q, %d), want (%q, %d)", c.name, via, payload, n, c.payload, c.n)
			}
		}
		wantErr := c.err
		if wantErr == ErrCRC {
			wantErr = nil
		}
		raw, err := ReadRaw(bufio.NewReader(bytes.NewReader(c.in)), testMax)
		if !sameErr(err, wantErr) {
			t.Errorf("%s via ReadRaw: err = %v, want %v", c.name, err, wantErr)
		} else if err == nil && !bytes.Equal(raw, c.in[:c.n]) {
			t.Errorf("%s via ReadRaw: %x, want %x", c.name, raw, c.in[:c.n])
		}
	}
}

// TestReadReusesBuffer pins the buffer contract: a frame that fits lands in
// the caller's backing array, a larger one grows it, and steady-state reads
// do not allocate.
func TestReadReusesBuffer(t *testing.T) {
	small := Append(nil, []byte("abc"))
	big := Append(nil, bytes.Repeat([]byte{7}, 40))
	buf := make([]byte, 0, 8)
	br := bufio.NewReader(bytes.NewReader(append(append([]byte(nil), small...), big...)))
	p, err := Read(br, testMax, &buf)
	if err != nil || &p[0] != &buf[:1][0] {
		t.Fatalf("small frame did not land in the caller's buffer (err %v)", err)
	}
	p, err = Read(br, testMax, &buf)
	if err != nil || len(p) != 40 || cap(buf) < 40 || &p[0] != &buf[:1][0] {
		t.Fatalf("large frame did not grow the caller's buffer (err %v)", err)
	}
	stream := bytes.Repeat(big, 128) // alloccheck runs the body 101 times
	br = bufio.NewReader(bytes.NewReader(stream))
	alloccheck.Guard(t, "frame.Read", 0, func() {
		if _, err := Read(br, testMax, &buf); err != nil {
			t.Fatal(err)
		}
	})
}

// TestReaderRoundTrip decodes every field type the Append helpers and
// stdlib writers produce, then checks the strictness rules one by one.
// TestReaderView pins View's contract: the bytes alias the payload, with no
// spare capacity, so appending to a view can never overwrite what follows.
func TestReaderView(t *testing.T) {
	b := AppendString(AppendString(nil, "view"), "next")
	r := NewReader(b)
	v := r.View()
	if string(v) != "view" || &v[0] != &b[1] || cap(v) != len(v) {
		t.Fatalf("View = %q (cap %d), want an alias of the payload's \"view\" with cap 4", v, cap(v))
	}
	if got := r.Str(); got != "next" {
		t.Errorf("Str after View = %q", got)
	}
	if err := r.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}
}

func TestReaderRoundTrip(t *testing.T) {
	var b []byte
	b = append(b, 0xab)
	b = binary.AppendUvarint(b, 1<<40)
	b = binary.BigEndian.AppendUint64(b, 0x0102030405060708)
	b = AppendF64(b, -2.5)
	b = AppendString(b, "héllo")
	b = AppendString(b, "")
	b = AppendBool(b, true)
	b = AppendBool(b, false)
	b = binary.AppendUvarint(b, 2)
	b = AppendF64(b, 1)
	b = AppendF64(b, math.Inf(-1))

	r := NewReader(b)
	if got := r.Byte(); got != 0xab {
		t.Errorf("Byte = %#x", got)
	}
	if got := r.Uvarint(); got != 1<<40 {
		t.Errorf("Uvarint = %d", got)
	}
	if got := r.U64(); got != 0x0102030405060708 {
		t.Errorf("U64 = %#x", got)
	}
	if got := r.F64(); math.Float64bits(got) != math.Float64bits(-2.5) {
		t.Errorf("F64 = %v", got)
	}
	if got := r.Str(); got != "héllo" {
		t.Errorf("Str = %q", got)
	}
	if got := r.Str(); got != "" {
		t.Errorf("empty Str = %q", got)
	}
	if !r.Bool() || r.Bool() {
		t.Error("Bool pair did not decode as true, false")
	}
	if n := r.Count(8); n != 2 {
		t.Errorf("Count = %d", n)
	}
	if one, inf := r.F64(), r.F64(); math.Float64bits(one) != math.Float64bits(1) || !math.IsInf(inf, -1) {
		t.Error("float pair mismatch")
	}
	if err := r.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}

	rejects := map[string]func(r *Reader){
		"short byte":        func(r *Reader) { r.Byte(); r.Byte() },
		"non-minimal":       func(r *Reader) { r.Uvarint() },
		"short u64":         func(r *Reader) { r.U64() },
		"count over bytes":  func(r *Reader) { r.Count(1) },
		"string overruns":   func(r *Reader) { r.Str() },
		"bool byte 2":       func(r *Reader) { r.Bool() },
		"trailing bytes":    func(r *Reader) { r.Byte() },
		"schema check":      func(r *Reader) { r.Fail(); r.Byte() },
		"uvarint overflows": func(r *Reader) { r.Uvarint() },
	}
	inputs := map[string][]byte{
		"short byte":        {1},
		"non-minimal":       {0x80, 0x00},
		"short u64":         {1, 2, 3, 4, 5, 6, 7},
		"count over bytes":  {3, 'a', 'b'},
		"string overruns":   {0x7f, 'a'},
		"bool byte 2":       {2},
		"trailing bytes":    {1, 2},
		"schema check":      {1},
		"uvarint overflows": {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f},
	}
	for name, read := range rejects {
		r := NewReader(inputs[name])
		read(&r)
		if err := r.Finish(); !errors.Is(err, ErrMalformed) {
			t.Errorf("%s: Finish = %v, want ErrMalformed", name, err)
		}
	}
}

// errClass buckets an envelope error for the Read/Split agreement check.
func errClass(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, ErrMalformed):
		return "malformed"
	case errors.Is(err, ErrTooLarge):
		return "too large"
	case errors.Is(err, ErrCRC):
		return "crc"
	case err == io.EOF:
		return "eof"
	case err == io.ErrUnexpectedEOF:
		return "truncated"
	}
	return "other: " + err.Error()
}

// FuzzFrame pins the envelope's single semantics. On every input Read and
// Split agree on the payload, the bytes consumed and the error class; an
// accepted frame re-encodes to the bytes it was read from; and ReadRaw
// fails exactly where Read does (a CRC mismatch aside) and otherwise
// returns exactly the prefix it consumed.
func FuzzFrame(f *testing.F) {
	f.Add([]byte{}, uint16(testMax))
	f.Add(Append(nil, nil), uint16(0))
	f.Add(Append(nil, []byte("payload")), uint16(testMax))
	f.Add(Append(Append(nil, []byte{1}), []byte{2, 3}), uint16(testMax))
	f.Add([]byte{0x80, 0x00, 0, 0, 0, 0}, uint16(testMax))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}, uint16(testMax))
	f.Add([]byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x00}, uint16(testMax))
	f.Add(bytes.Repeat([]byte{0x80}, 10), uint16(testMax))
	f.Add(append(binary.AppendUvarint(nil, 300), 0, 0, 0, 0), uint16(299))
	f.Fuzz(func(t *testing.T, raw []byte, max16 uint16) {
		max := int(max16)
		rp, rn, rerr := readOne(raw, max)
		sp, sn, serr := Split(raw, max)
		if errClass(rerr) != errClass(serr) {
			t.Fatalf("Read err %v, Split err %v on %x", rerr, serr, raw)
		}
		if rerr == nil {
			if !bytes.Equal(rp, sp) || rn != sn {
				t.Fatalf("Read (%x, %d) and Split (%x, %d) disagree on %x", rp, rn, sp, sn, raw)
			}
			if re := Append(nil, sp); !bytes.Equal(re, raw[:sn]) {
				t.Fatalf("accepted frame re-encodes to %x, read from %x", re, raw[:sn])
			}
		}

		rd := bytes.NewReader(raw)
		br := bufio.NewReaderSize(rd, 16)
		whole, werr := ReadRaw(br, max)
		wantClass := errClass(rerr)
		if wantClass == "crc" {
			wantClass = "ok"
		}
		if errClass(werr) != wantClass {
			t.Fatalf("ReadRaw err %v, Read err %v on %x", werr, rerr, raw)
		}
		if werr == nil {
			used := len(raw) - rd.Len() - br.Buffered()
			if !bytes.Equal(whole, raw[:used]) {
				t.Fatalf("ReadRaw returned %x, consumed %x", whole, raw[:used])
			}
		}
	})
}
