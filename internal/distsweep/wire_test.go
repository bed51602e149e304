package distsweep

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

// TestFrameRoundTrip pins the frame layout: 4-byte big-endian length
// counting version+type+payload, then those bytes.
func TestFrameRoundTrip(t *testing.T) {
	payload := []byte(`{"shard":3,"start":12,"end":20}`)
	buf := EncodeFrame(Frame{Type: MsgAssign, Payload: payload})
	if got := binary.BigEndian.Uint32(buf); int(got) != 2+len(payload) {
		t.Fatalf("length prefix %d, want %d", got, 2+len(payload))
	}
	if buf[4] != ProtocolVersion || MsgType(buf[5]) != MsgAssign {
		t.Fatalf("header bytes %d/%d, want %d/%d", buf[4], buf[5], ProtocolVersion, MsgAssign)
	}
	f, n, err := DecodeFrame(buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(buf) || f.Type != MsgAssign || !bytes.Equal(f.Payload, payload) {
		t.Fatalf("decoded (%d, %v, %s)", n, f.Type, f.Payload)
	}
	// A frame at the front of a longer stream decodes the same and
	// reports its own length.
	f2, n2, err := DecodeFrame(append(append([]byte(nil), buf...), 0xFF, 0xFF))
	if err != nil || n2 != len(buf) || !bytes.Equal(f2.Payload, payload) {
		t.Fatalf("prefix decode: n=%d err=%v", n2, err)
	}
}

// TestDecodeFrameTypedErrors walks every failure mode and checks each
// returns its dedicated type — the contract FuzzDecodeFrame then
// hammers with arbitrary input.
func TestDecodeFrameTypedErrors(t *testing.T) {
	valid := EncodeFrame(Frame{Type: MsgPing, Payload: []byte(`{}`)})

	t.Run("truncated header", func(t *testing.T) {
		var te *TruncatedError
		if _, _, err := DecodeFrame(valid[:3]); !errors.As(err, &te) {
			t.Fatalf("got %v", err)
		}
	})
	t.Run("truncated body", func(t *testing.T) {
		var te *TruncatedError
		if _, _, err := DecodeFrame(valid[:len(valid)-1]); !errors.As(err, &te) {
			t.Fatalf("got %v", err)
		}
	})
	t.Run("oversized length prefix", func(t *testing.T) {
		buf := append([]byte(nil), valid...)
		binary.BigEndian.PutUint32(buf, MaxFramePayload+3)
		var fe *FrameSizeError
		if _, _, err := DecodeFrame(buf); !errors.As(err, &fe) {
			t.Fatalf("got %v", err)
		}
	})
	t.Run("undersized length prefix", func(t *testing.T) {
		buf := append([]byte(nil), valid...)
		binary.BigEndian.PutUint32(buf, 1)
		var fe *FrameSizeError
		if _, _, err := DecodeFrame(buf); !errors.As(err, &fe) {
			t.Fatalf("got %v", err)
		}
	})
	t.Run("version skew", func(t *testing.T) {
		buf := append([]byte(nil), valid...)
		buf[4] = ProtocolVersion + 1
		var ve *VersionError
		if _, _, err := DecodeFrame(buf); !errors.As(err, &ve) {
			t.Fatalf("got %v", err)
		}
		if ve.Got != ProtocolVersion+1 || ve.Want != ProtocolVersion {
			t.Fatalf("version error %+v", ve)
		}
	})
	t.Run("unknown type", func(t *testing.T) {
		buf := append([]byte(nil), valid...)
		buf[5] = byte(maxMsgType) + 1
		var pe *ProtocolError
		if _, _, err := DecodeFrame(buf); !errors.As(err, &pe) {
			t.Fatalf("got %v", err)
		}
	})
	t.Run("zero type", func(t *testing.T) {
		buf := append([]byte(nil), valid...)
		buf[5] = 0
		var pe *ProtocolError
		if _, _, err := DecodeFrame(buf); !errors.As(err, &pe) {
			t.Fatalf("got %v", err)
		}
	})
}

// FuzzDecodeFrame holds the wire decoder to its contract on arbitrary
// bytes: never panic, never allocate per an attacker-chosen length,
// return only the typed errors, and round-trip every accepted frame.
func FuzzDecodeFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0})
	f.Add(EncodeFrame(Frame{Type: MsgHello, Payload: []byte(`{"version":1}`)}))
	f.Add(EncodeFrame(Frame{Type: MsgRow, Payload: []byte(`{"shard":0,"index":0,"row":{},"result":{}}`)}))
	f.Add(EncodeFrame(Frame{Type: MsgComplete, Payload: []byte(`{}`)}))
	long := EncodeFrame(Frame{Type: MsgPing, Payload: bytes.Repeat([]byte("x"), 1024)})
	f.Add(long[:17])
	skew := EncodeFrame(Frame{Type: MsgPing, Payload: []byte(`{}`)})
	skew[4] = 9
	f.Add(skew)
	huge := make([]byte, 8)
	binary.BigEndian.PutUint32(huge, 0xFFFFFFFF)
	f.Add(huge)

	f.Fuzz(func(t *testing.T, data []byte) {
		fr, n, err := DecodeFrame(data)
		if err != nil {
			var fe *FrameSizeError
			var te *TruncatedError
			var ve *VersionError
			var pe *ProtocolError
			if !errors.As(err, &fe) && !errors.As(err, &te) && !errors.As(err, &ve) && !errors.As(err, &pe) {
				t.Fatalf("untyped decode error %T: %v", err, err)
			}
			return
		}
		if n < frameHeaderSize+2 || n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		if !bytes.Equal(EncodeFrame(fr), data[:n]) {
			t.Fatalf("re-encode differs from consumed bytes")
		}
	})
}

// TestStrictPayloadDecoders pins both distsweep JSON decoders — frame
// payloads (decodeMsg) and job params (decodeParams) — to exactly one
// value with known fields: trailing values, stray closing brackets and
// garbage are rejected, and a payload fault is a *ProtocolError.
func TestStrictPayloadDecoders(t *testing.T) {
	for _, c := range []struct {
		body string
		ok   bool
	}{
		{`{"version":1}`, true},
		{"{\"version\":1}\n", true},
		{`{"version":1}}`, false},
		{`{"version":1}]`, false},
		{`{"version":1}]]]garbage`, false},
		{`{"version":1}{"version":2}`, false},
		{`{"version":1,"extra":0}`, false},
		{`{"version":`, false},
	} {
		var hello helloMsg
		err := decodeMsg([]byte(c.body), &hello)
		if c.ok != (err == nil) {
			t.Errorf("decodeMsg(%q) = %v, want ok=%v", c.body, err, c.ok)
		}
		var pe *ProtocolError
		if err != nil && !errors.As(err, &pe) {
			t.Errorf("decodeMsg(%q) = %T, want *ProtocolError", c.body, err)
		}
		var params struct {
			Version byte `json:"version"`
		}
		if err := decodeParams([]byte(c.body), &params); c.ok != (err == nil) {
			t.Errorf("decodeParams(%q) = %v, want ok=%v", c.body, err, c.ok)
		}
	}
}
