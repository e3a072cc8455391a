package harmony

import (
	"bytes"
	"math"
	"net"
	"testing"
	"time"

	"paratune/internal/feddb"
	"paratune/internal/frame"
	"paratune/internal/space"
)

// FuzzTCPFrameDecode: arbitrary bytes on a fresh connection — preambles
// right and wrong, truncated frames, oversized frames, garbage — must never
// panic the connection handler or leak its goroutine. The bytes are fed
// through a real handleConn over an in-process pipe; whatever happens, the
// handler must exit once the connection closes (the connTracker join below
// hangs the test otherwise, and -timeout converts that into a failure
// rather than a silent leak).
func FuzzTCPFrameDecode(f *testing.F) {
	preamble := func(frames ...[]byte) []byte {
		return append([]byte(WireMagic), bytes.Join(frames, nil)...)
	}
	good := binSeed(&request{Op: opBest, Session: "s", Seq: 1})
	crc := append([]byte{}, good...)
	crc[len(crc)-1] ^= 0xff
	f.Add(preamble(good))
	f.Add(preamble(crc))
	f.Add(preamble([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f})) // oversized length prefix
	f.Add(preamble(good[:len(good)/2]))
	f.Add(preamble(good, good)) // the second copy repeats seq 1
	// A sync peer on a server without a measurement database.
	f.Add([]byte(feddb.SyncMagic))
	// A JSON line, which no longer opens any protocol.
	f.Add([]byte(`{"op":"best","session":"s","seq":1,"client":"c"}` + "\n"))
	// Preamble edge cases: a bare preamble, a cut one, and a wrong one that
	// shares the right one's first seven bytes.
	f.Add([]byte(WireMagic))
	f.Add([]byte(WireMagic[:3]))
	f.Add(append([]byte("PHWIRE9\n"), good...))
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
	f.Add(binSeed(&request{Op: opBest, Session: "s", Seq: 1}))
	f.Add(binSeed(&request{Op: opFetchN, Session: "s", N: 1, Seq: 2}))
	f.Add(binSeed(&request{Op: opReportN, Session: "s", Reports: []ReportItem{{Tag: 1, Value: 2.5}}, Seq: 3}))
	f.Add(binSeed(&request{Op: opFetchN, Session: "s", N: 8, Seq: 4}))
	f.Add(binSeed(&request{Op: opReportN, Session: "s", Seq: 5,
		Reports: []ReportItem{{Tag: 1, Value: 3.5}, {Tag: 2, Value: 4.5}}}))
	f.Add(binSeed(&request{Op: opRegister, Session: "s", Seq: 6, Params: []space.Parameter{
		{Name: "x", Kind: space.Integer, Lower: 0, Upper: 5},
		{Name: "m", Kind: space.Discrete, Values: []float64{1, 2, 4}},
	}}))
	// The retired opcodes are malformed: frames relabelled as the
	// single-sample fetch and report (2, 3) and the resume handshake (6).
	f.Add(binSeedOp(2, &request{Op: opFetchN, Session: "s", N: 1, Seq: 7}))
	f.Add(binSeedOp(3, &request{Op: opReportN, Session: "s", Reports: []ReportItem{{Tag: 1, Value: 2.5}}, Seq: 8}))
	f.Add(binSeedOp(6, &request{Op: opBest, Session: "s", Seq: ^uint64(0)}))
	// Structural corruption: truncated frame, bad CRC, oversized length
	// prefix, non-minimal length uvarint, bare garbage.
	good := binSeed(&request{Op: opBest, Session: "s", Seq: 1})
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

// onePoint is a space of one configuration. PRO's first batch over it is two
// candidates at that point, tags 1..6 at min-of-3, and filling it converges
// the session.
var onePoint = []space.Parameter{space.IntParam("x", 0, 0)}

// onePointBatch fills every slot of a onePoint session's first batch.
var onePointBatch = []ReportItem{{Tag: 1, Value: 1}, {Tag: 2, Value: 1}, {Tag: 3, Value: 1},
	{Tag: 4, Value: 1}, {Tag: 5, Value: 1}, {Tag: 6, Value: 1}}

// FuzzDispatch: an arbitrary request payload that PHWIRE1 decodes must never
// panic the server, must produce a well-formed response, and that response
// must survive appendResponse → decodeResponse byte for byte.
func FuzzDispatch(f *testing.F) {
	seed := func(req *request) {
		payload, err := appendRequest(nil, req)
		if err != nil {
			panic(err)
		}
		f.Add(payload)
	}
	seed(&request{Op: opRegister, Session: "s", Params: []space.Parameter{{Name: "x", Kind: space.Integer, Lower: 0, Upper: 5}}})
	seed(&request{Op: opRegister, Session: "s", Params: []space.Parameter{{Name: "", Kind: space.Discrete}}})
	seed(&request{Op: opFetchN, Session: "s", N: 1})
	seed(&request{Op: opFetchN, Session: "s", N: 16})
	seed(&request{Op: opReportN, Session: "s", Reports: []ReportItem{{Tag: 1, Value: 2.5}}})
	seed(&request{Op: opBest, Session: "s"})
	seed(&request{Op: opStats, Session: "s"})
	seed(&request{Op: opStats, Session: ""})
	// Corrupt measurement reports: negative, absurd and non-finite values
	// must be rejected with a structured error, never accepted or panicking.
	for _, v := range []float64{-1, -1e308, 1e308, -0.001, math.NaN(), math.Inf(1), math.Inf(-1)} {
		seed(&request{Op: opReportN, Session: "s", Reports: []ReportItem{{Tag: 1, Value: v}}})
		seed(&request{Op: opReportN, Session: "s", Reports: []ReportItem{{Tag: 1, Value: v}, {Tag: 0, Value: v}}})
	}
	// Replies that carry a converged session's answer: a register joining
	// "done", which converged in setup, and the reportn that fills "one"'s
	// only batch and so converges it.
	seed(&request{Op: opRegister, Session: "done", Params: onePoint})
	seed(&request{Op: opReportN, Session: "one", Reports: onePointBatch})
	f.Fuzz(func(t *testing.T, payload []byte) {
		var req request
		if err := decodeRequest(payload, &req); err != nil {
			return // the codec rejects a malformed payload before dispatch
		}
		srv := NewServer(ServerOptions{})
		defer srv.Close()
		//paralint:allow errdiscipline fuzz setup; a failed register still exercises dispatch
		_ = srv.Register("s", gs2Params())
		for _, name := range []string{"one", "done"} {
			//paralint:allow errdiscipline fuzz setup; a failed register still exercises dispatch
			_ = srv.Register(name, onePoint)
		}
		//paralint:allow errdiscipline fuzz setup; a failed report still exercises dispatch
		_, _ = srv.ReportN("done", onePointBatch)
		resp := dispatch(srv, &req, nil)
		if !resp.OK && resp.Error == "" {
			t.Fatalf("failed response without error message for %+v", req)
		}
		// Only a reportn reply that rejected items is OK and still carries
		// an error: the last rejection's.
		if resp.OK && (resp.Error != "") != (req.Op == opReportN && resp.Rejected > 0) {
			t.Fatalf("successful response carrying error %q (code %q) for %+v", resp.Error, resp.Code, req)
		}
		out := appendResponse(nil, &resp)
		var back response
		if err := decodeResponse(out, &back); err != nil {
			t.Fatalf("response %+v does not decode: %v", resp, err)
		}
		if re := appendResponse(nil, &back); !bytes.Equal(re, out) {
			t.Fatalf("response round trip changed its bytes:\n in: %x\nout: %x", out, re)
		}
	})
}

// FuzzResponseDecode: an arbitrary response payload must never panic the
// client's decoder, which must accept and reject what the per-grant
// reference decoder does and agree with it field for field, and any payload
// it accepts must re-encode to the exact same bytes.
func FuzzResponseDecode(f *testing.F) {
	for _, resp := range wireResponses() {
		f.Add(appendResponse(nil, &resp))
	}
	shared := space.Point{8, 4, 2}
	f.Add(appendResponse(nil, &response{OK: true, Seq: 8, Batch: []FetchResult{
		{Point: shared, Tag: 1}, {Point: space.Point{1, 2, 3}, Tag: 4}, {Tag: 7},
		{Point: shared, Tag: 2}, {Point: space.Point{1, 2, 3}, Tag: 5}, {Point: shared.Clone(), Tag: 3},
	}}))
	f.Add(appendResponse(nil, &response{OK: true, Seq: 9, Batch: []FetchResult{{Point: shared, Converged: true}}}))
	f.Fuzz(func(t *testing.T, payload []byte) {
		resp, err := sameDecode(t, payload)
		if err != nil {
			return
		}
		if re := appendResponse(nil, &resp); !bytes.Equal(re, payload) {
			t.Fatalf("decode∘encode not identity:\n in: %x\nout: %x", payload, re)
		}
	})
}
