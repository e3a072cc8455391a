package harmony

import (
	"bytes"
	"encoding/json"
	"net"
	"testing"
	"time"

	"paratune/internal/frame"
)

// FuzzTCPFrameDecode: arbitrary bytes on the wire — truncated frames,
// oversized frames, garbage, binary noise — must never panic the connection
// handler or leak its goroutine. The frame is fed through a real handleConn
// over an in-process pipe; whatever happens, the handler must exit once the
// connection closes (the connTracker join below hangs the test otherwise,
// and -timeout converts that into a failure rather than a silent leak).
func FuzzTCPFrameDecode(f *testing.F) {
	f.Add([]byte(`{"op":"best","session":"s"}` + "\n"))
	f.Add([]byte(`{"op":"fetch","session":"s"`)) // truncated: no brace, no newline
	f.Add([]byte(`{"op":`))
	f.Add([]byte("\n\n\n"))
	f.Add([]byte{0xff, 0xfe, 0x00, 0x01})
	f.Add([]byte(`{"op":"report","session":"s","tag":1,"value":`))
	f.Add(bytes.Repeat([]byte("a"), 4096))
	f.Add(append(bytes.Repeat([]byte(" "), 2048), '\n'))
	// The retired resume op is now an unknown op.
	f.Add([]byte(`{"op":"resume","session":"s","client":"c","seq":18446744073709551615}` + "\n"))
	f.Add([]byte(`{"op":"best","session":"s","seq":1,"client":"c"}` + "\n" + `{"op":"best","session":"s","seq":1,"client":"c"}` + "\n"))
	f.Fuzz(func(t *testing.T, raw []byte) {
		srv := NewServer(ServerOptions{})
		defer srv.Close()
		//paralint:allow errdiscipline fuzz setup; a failed register still exercises the decoder
		_ = srv.Register("s", gs2Params())

		client, server := net.Pipe()
		var tracker connTracker
		tracker.add(server)
		tracker.wg.Add(1)
		opts := ConnOptions{ReadTimeout: 2 * time.Second, WriteTimeout: 2 * time.Second}
		go handleConn(server, srv, opts, &tracker)

		// Write the fuzzed bytes, draining whatever the server answers so a
		// blocked response write can never wedge the handler, then close.
		done := make(chan struct{})
		go func() {
			defer close(done)
			buf := make([]byte, 4096)
			for {
				if _, err := client.Read(buf); err != nil {
					return
				}
			}
		}()
		_ = client.SetWriteDeadline(time.Now().Add(2 * time.Second))
		//paralint:allow errdiscipline a write the handler already rejected is a valid fuzz outcome
		_, _ = client.Write(raw)
		_ = client.Close()
		tracker.wg.Wait() // a leaked handler goroutine hangs here
		<-done
	})
}

// binSeed builds a valid PHWIRE1 frame for req, for fuzz corpus seeding.
func binSeed(req *request) []byte {
	return binSeedOp(0, req)
}

// binSeedOp is binSeed with the payload's opcode byte replaced by op
// (0 keeps req's own), so a seed can carry an opcode no name encodes.
func binSeedOp(op byte, req *request) []byte {
	payload, err := appendRequest(nil, req)
	if err != nil {
		panic(err)
	}
	if op != 0 {
		payload[0] = op
	}
	return frame.Append(nil, payload)
}

// FuzzBinaryFrameDecode: arbitrary bytes after the PHWIRE1 preamble —
// truncated frames, corrupted CRCs, non-minimal uvarints, oversized lengths,
// garbage opcodes — must never panic the connection handler or leak its
// goroutine, and any payload the canonical decoder accepts must re-encode to
// the exact same bytes (decode∘encode identity).
func FuzzBinaryFrameDecode(f *testing.F) {
	f.Add(binSeed(&request{Op: "best", Session: "s", Client: "c", Seq: 1}))
	f.Add(binSeed(&request{Op: "fetch", Session: "s", Client: "c", Seq: 2}))
	f.Add(binSeed(&request{Op: "report", Session: "s", Tag: 1, Value: 2.5, RID: "r-1", Seq: 3}))
	f.Add(binSeed(&request{Op: "fetchn", Session: "s", N: 8, Seq: 4}))
	f.Add(binSeed(&request{Op: "reportn", Session: "s", Seq: 5,
		Reports: []ReportItem{{Tag: 1, Value: 3.5, RID: "r-2"}, {Tag: 2, Value: 4.5}}}))
	f.Add(binSeed(&request{Op: "register", Session: "s", Seq: 6, Params: []wireParam{
		{Name: "x", Kind: "integer", Lower: 0, Upper: 5},
		{Name: "m", Kind: "discrete", Values: []float64{1, 2, 4}},
	}}))
	// The retired resume opcode 6 is malformed: a best frame relabelled.
	f.Add(binSeedOp(6, &request{Op: "best", Session: "s", Client: "c", Seq: ^uint64(0)}))
	// Structural corruption: truncated frame, bad CRC, oversized length
	// prefix, non-minimal length uvarint, bare garbage.
	good := binSeed(&request{Op: "best", Session: "s", Client: "c", Seq: 1})
	f.Add(good[:len(good)/2])
	bad := append([]byte{}, good...)
	bad[len(bad)-1] ^= 0xff
	f.Add(bad)
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f})
	f.Add([]byte{0x80, 0x00, 0, 0, 0, 0}) // non-minimal uvarint length
	f.Add([]byte{0x00, 0, 0, 0, 0})       // empty payload: CRC ok?, zero-length
	f.Add(bytes.Repeat([]byte{0xa5}, 512))
	f.Fuzz(func(t *testing.T, raw []byte) {
		// Canonicality: if raw parses as one whole frame whose payload decodes
		// as a request, re-encoding that request must reproduce the payload
		// byte for byte.
		if payload, _, err := frame.Split(raw, frame.MaxPayload); err == nil {
			var req request
			if err := decodeRequest(payload, &req); err == nil {
				re, err := appendRequest(nil, &req)
				if err != nil {
					t.Fatalf("decoded request failed to re-encode: %v", err)
				}
				if !bytes.Equal(re, payload) {
					t.Fatalf("decode∘encode not identity:\n in: %x\nout: %x", payload, re)
				}
			}
		}

		// Transport robustness: the same bytes fed through a live handler
		// after a real preamble must never wedge or leak the connection
		// goroutine.
		srv := NewServer(ServerOptions{})
		defer srv.Close()
		//paralint:allow errdiscipline fuzz setup; a failed register still exercises the decoder
		_ = srv.Register("s", gs2Params())

		client, server := net.Pipe()
		var tracker connTracker
		tracker.add(server)
		tracker.wg.Add(1)
		opts := ConnOptions{ReadTimeout: 2 * time.Second, WriteTimeout: 2 * time.Second}
		go handleConn(server, srv, opts, &tracker)

		done := make(chan struct{})
		go func() {
			defer close(done)
			buf := make([]byte, 4096)
			for {
				if _, err := client.Read(buf); err != nil {
					return
				}
			}
		}()
		_ = client.SetWriteDeadline(time.Now().Add(2 * time.Second))
		//paralint:allow errdiscipline a write the handler already rejected is a valid fuzz outcome
		_, _ = client.Write([]byte(WireMagic))
		//paralint:allow errdiscipline a write the handler already rejected is a valid fuzz outcome
		_, _ = client.Write(raw)
		_ = client.Close()
		tracker.wg.Wait() // a leaked handler goroutine hangs here
		<-done
	})
}

// FuzzDispatch: arbitrary request JSON must never panic the server and must
// always produce a well-formed response.
func FuzzDispatch(f *testing.F) {
	f.Add(`{"op":"register","session":"s","params":[{"name":"x","kind":"integer","lower":0,"upper":5}]}`)
	f.Add(`{"op":"fetch","session":"s"}`)
	f.Add(`{"op":"report","session":"s","tag":1,"value":2.5}`)
	f.Add(`{"op":"best","session":"s"}`)
	f.Add(`{"op":"stats","session":"s"}`)
	f.Add(`{"op":"???","session":""}`)
	f.Add(`{"op":"register","session":"s","params":[{"name":"","kind":"weird"}]}`)
	// Corrupt measurement reports: negative and absurd values must be
	// rejected with a structured error, never accepted or panicking. (JSON
	// cannot encode NaN/Inf; those arrive only via the in-process API and are
	// covered by TestReportRejectsInvalidValues.)
	f.Add(`{"op":"report","session":"s","tag":1,"value":-1}`)
	f.Add(`{"op":"report","session":"s","tag":1,"value":-1e308}`)
	f.Add(`{"op":"report","session":"s","tag":1,"value":1e308,"rid":"r-1"}`)
	f.Add(`{"op":"report","session":"s","tag":0,"value":-0.001,"rid":""}`)
	f.Fuzz(func(t *testing.T, raw string) {
		var req request
		if err := json.Unmarshal([]byte(raw), &req); err != nil {
			return // transport layer rejects malformed JSON before dispatch
		}
		srv := NewServer(ServerOptions{})
		defer srv.Close()
		resp := dispatch(srv, &req, "", nil)
		if !resp.OK && resp.Error == "" {
			t.Fatalf("failed response without error message for %q", raw)
		}
		if resp.OK && resp.Code != "" {
			t.Fatalf("successful response carrying error code %q for %q", resp.Code, raw)
		}
		if _, err := json.Marshal(resp); err != nil {
			t.Fatalf("unmarshalable response: %v", err)
		}
	})
}
