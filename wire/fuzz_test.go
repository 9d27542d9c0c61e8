package wire

import (
	"bytes"
	"testing"
)

// FuzzDecodeRequest feeds arbitrary bytes to the request decoder. The
// decoder must never panic, and anything it accepts must survive an
// encode → decode round trip unchanged (so the accepted language is exactly
// the encodable one).
func FuzzDecodeRequest(f *testing.F) {
	for _, r := range requestCases() {
		frame, err := AppendRequest(nil, &r)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame[8:]) // seed with valid bodies (frame header stripped)
	}
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, 64))
	// Bodies of the ops revision 5 retired (7-9), which must stay
	// rejected like any unknown opcode.
	f.Add(append(make([]byte, 8), 7, 0, 0, 0, 0, 0, 0, 0, 42))
	f.Add(append(make([]byte, 8), 8, 0, 0, 0, 0, 0, 0, 0, 42, 'v'))
	f.Add(append(make([]byte, 8), 9, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 9, 0, 0, 0, 4))
	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := DecodeRequest(body)
		if err != nil {
			return
		}
		frame, err := AppendRequest(nil, &req)
		if err != nil {
			t.Fatalf("decoded request does not re-encode: %v (%+v)", err, req)
		}
		if !bytes.Equal(frame[8:], body) {
			t.Fatalf("re-encoded body differs:\n got %x\nwant %x", frame[8:], body)
		}
		if got, err := DecodeRequest(frame[8:]); err != nil {
			t.Fatalf("re-decode failed: %v (%+v)", err, got)
		}
	})
}

// FuzzDecodeResponse is the same hardening for the response decoder.
func FuzzDecodeResponse(f *testing.F) {
	for _, r := range responseCases() {
		frame, err := AppendResponse(nil, &r)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame[8:])
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, body []byte) {
		resp, err := DecodeResponse(body)
		if err != nil {
			return
		}
		frame, err := AppendResponse(nil, &resp)
		if err != nil {
			t.Fatalf("decoded response does not re-encode: %v (%+v)", err, resp)
		}
		if !bytes.Equal(frame[8:], body) {
			t.Fatalf("re-encoded body differs:\n got %x\nwant %x", frame[8:], body)
		}
	})
}
