package ctrl

import (
	"bytes"
	"io"
	"testing"
	"testing/quick"

	"flattree/internal/converter"
)

func TestFrameRoundTrip(t *testing.T) {
	err := quick.Check(func(tRaw uint8, payload []byte) bool {
		if len(payload) > MaxPayload {
			payload = payload[:MaxPayload]
		}
		mt := MsgType(tRaw%7 + 1)
		var buf bytes.Buffer
		if err := WriteFrame(&buf, mt, payload); err != nil {
			return false
		}
		gotT, gotP, err := ReadFrame(&buf)
		if err != nil {
			return false
		}
		return gotT == mt && bytes.Equal(gotP, payload)
	}, &quick.Config{MaxCount: 50})
	if err != nil {
		t.Error(err)
	}
}

func TestReadFrameRejectsBadMagic(t *testing.T) {
	buf := bytes.NewBuffer([]byte{0xde, 0xad, 1, 1, 0, 0, 0, 0})
	if _, _, err := ReadFrame(buf); err == nil {
		t.Error("bad magic accepted")
	}
}

func TestReadFrameRejectsBadVersion(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, MsgHello, nil); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	b[2] = 99
	if _, _, err := ReadFrame(bytes.NewReader(b)); err == nil {
		t.Error("bad version accepted")
	}
}

func TestReadFrameRejectsOversizedLength(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, MsgHello, []byte{1}); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	// Corrupt the length field to a huge value.
	b[4], b[5], b[6], b[7] = 0xff, 0xff, 0xff, 0xff
	if _, _, err := ReadFrame(bytes.NewReader(b)); err == nil {
		t.Error("oversized length accepted")
	}
}

func TestReadFrameTruncated(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, MsgStage, []byte{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	if _, _, err := ReadFrame(bytes.NewReader(b[:len(b)-2])); err == nil {
		t.Error("truncated frame accepted")
	}
	if _, _, err := ReadFrame(bytes.NewReader(b[:3])); err != io.ErrUnexpectedEOF {
		t.Errorf("truncated header: err = %v", err)
	}
}

func TestHelloRoundTrip(t *testing.T) {
	h := Hello{Pod: 7, NumConverters: 42}
	got, err := UnmarshalHello(MarshalHello(h))
	if err != nil || got != h {
		t.Errorf("got %+v err %v", got, err)
	}
	if _, err := UnmarshalHello([]byte{1, 2}); err == nil {
		t.Error("short hello accepted")
	}
}

func TestStageRoundTrip(t *testing.T) {
	err := quick.Check(func(epoch uint64, n uint8) bool {
		s := Stage{Epoch: epoch}
		for i := 0; i < int(n%20); i++ {
			s.Entries = append(s.Entries, ConfigEntry{
				Converter: uint32(i * 3),
				Config:    converter.Config(i % 4),
			})
		}
		got, err := UnmarshalStage(MarshalStage(s))
		if err != nil || got.Epoch != s.Epoch || len(got.Entries) != len(s.Entries) {
			return false
		}
		for i := range s.Entries {
			if got.Entries[i] != s.Entries[i] {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 40})
	if err != nil {
		t.Error(err)
	}
	if _, err := UnmarshalStage([]byte{1}); err == nil {
		t.Error("short stage accepted")
	}
	// Inconsistent count vs payload length.
	b := MarshalStage(Stage{Epoch: 1, Entries: []ConfigEntry{{Converter: 1}}})
	if _, err := UnmarshalStage(b[:len(b)-1]); err == nil {
		t.Error("truncated stage accepted")
	}
}

func TestAckCommitErrorRoundTrip(t *testing.T) {
	a := Ack{Epoch: 9, Pod: 3}
	if got, err := UnmarshalAck(MarshalAck(a)); err != nil || got != a {
		t.Errorf("ack: %+v %v", got, err)
	}
	c := Commit{Epoch: 12}
	if got, err := UnmarshalCommit(MarshalCommit(c)); err != nil || got != c {
		t.Errorf("commit: %+v %v", got, err)
	}
	e := ErrorMsg{Epoch: 4, Pod: 2, Text: "boom"}
	if got, err := UnmarshalError(MarshalError(e)); err != nil || got != e {
		t.Errorf("error: %+v %v", got, err)
	}
	if _, err := UnmarshalAck([]byte{1}); err == nil {
		t.Error("short ack accepted")
	}
	if _, err := UnmarshalCommit([]byte{1}); err == nil {
		t.Error("short commit accepted")
	}
	if _, err := UnmarshalError([]byte{1}); err == nil {
		t.Error("short error accepted")
	}
}

func TestMsgTypeStrings(t *testing.T) {
	for mt := MsgHello; mt <= MsgError; mt++ {
		if mt.String() == "" {
			t.Error("empty message type name")
		}
	}
}

// FuzzWireFrame feeds arbitrary bytes to the decoders: ReadFrame and every
// Unmarshal* must return an error rather than panic, and whatever they
// accept must re-encode to exactly the bytes they read.
func FuzzWireFrame(f *testing.F) {
	frame := func(t MsgType, payload []byte) []byte {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, t, payload); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	f.Add(frame(MsgHello, MarshalHello(Hello{Pod: 3, NumConverters: 8})))
	f.Add(frame(MsgStage, MarshalStage(Stage{Epoch: 7, Entries: []ConfigEntry{{Converter: 1, Config: 2}, {Converter: 5}}})))
	f.Add(frame(MsgStaged, MarshalAck(Ack{Epoch: 7, Pod: 2})))
	f.Add(frame(MsgCommit, MarshalCommit(Commit{Epoch: 7})))
	f.Add(frame(MsgError, MarshalError(ErrorMsg{Epoch: 7, Pod: 1, Text: "converter 4 stuck"})))
	f.Add(frame(MsgHeartbeat, nil))
	// A stage whose entry count wraps 5*n in 32 bits to the 4 bytes present.
	f.Add(frame(MsgStage, []byte{0, 0, 0, 0, 0, 0, 0, 1, 0x33, 0x33, 0x33, 0x34, 1, 2, 3, 4}))
	f.Fuzz(func(t *testing.T, data []byte) {
		if mt, payload, err := ReadFrame(bytes.NewReader(data)); err == nil {
			var buf bytes.Buffer
			if err := WriteFrame(&buf, mt, payload); err != nil {
				t.Fatalf("accepted %s frame does not re-encode: %v", mt, err)
			}
			if !bytes.Equal(buf.Bytes(), data[:buf.Len()]) {
				t.Fatalf("%s frame re-encodes to %x, read from %x", mt, buf.Bytes(), data[:buf.Len()])
			}
		}
		codecs := []struct {
			name   string
			recode func([]byte) ([]byte, error)
		}{
			{"hello", func(b []byte) ([]byte, error) { m, err := UnmarshalHello(b); return MarshalHello(m), err }},
			{"stage", func(b []byte) ([]byte, error) { m, err := UnmarshalStage(b); return MarshalStage(m), err }},
			{"ack", func(b []byte) ([]byte, error) { m, err := UnmarshalAck(b); return MarshalAck(m), err }},
			{"commit", func(b []byte) ([]byte, error) { m, err := UnmarshalCommit(b); return MarshalCommit(m), err }},
			{"error", func(b []byte) ([]byte, error) { m, err := UnmarshalError(b); return MarshalError(m), err }},
		}
		for _, c := range codecs {
			if got, err := c.recode(data); err == nil && !bytes.Equal(got, data) {
				t.Errorf("%s payload %x re-encodes to %x", c.name, data, got)
			}
		}
	})
}
