// Package ctrl implements the flat-tree control plane of §2.6: a
// centralized controller that plans converter configurations for a target
// per-pod mode assignment and drives pod agents — the software face of the
// converter hardware — through a two-phase (stage, commit) reconfiguration
// over TCP. "The topology is changed by configuring converter switches, via
// specific control mechanisms depending on the realization technology";
// here the realization technology is a length-prefixed binary protocol and
// an in-process hardware model, with the same state machine a production
// deployment would drive optical switches with.
package ctrl

import (
	"encoding/binary"
	"fmt"
	"io"

	"flattree/internal/converter"
)

// Protocol constants.
const (
	// Magic opens every frame.
	Magic uint16 = 0xF1A7
	// Version is the protocol version.
	Version uint8 = 1
	// MaxPayload bounds a frame payload (1 MiB) so a corrupt length field
	// cannot trigger an unbounded allocation.
	MaxPayload = 1 << 20
	headerLen  = 8 // magic(2) version(1) type(1) len(4)
)

// MsgType identifies a frame.
type MsgType uint8

const (
	// MsgHello registers an agent for a pod (agent -> controller).
	MsgHello MsgType = iota + 1
	// MsgStage carries converter configurations for a pending epoch
	// (controller -> agent).
	MsgStage
	// MsgStaged acknowledges a stage (agent -> controller).
	MsgStaged
	// MsgCommit activates the staged epoch (controller -> agent).
	MsgCommit
	// MsgCommitted acknowledges a commit (agent -> controller).
	MsgCommitted
	// MsgAbort discards a staged epoch (controller -> agent).
	MsgAbort
	// MsgError reports a failure (either direction).
	MsgError
	// MsgHeartbeat is a periodic liveness beacon (agent -> controller).
	// The payload is empty; the pod is known from the registration. The
	// controller's liveness monitor declares a pod dead when its last
	// heartbeat is older than the caller's deadline.
	MsgHeartbeat
)

// String names the message type.
func (t MsgType) String() string {
	switch t {
	case MsgHello:
		return "hello"
	case MsgStage:
		return "stage"
	case MsgStaged:
		return "staged"
	case MsgCommit:
		return "commit"
	case MsgCommitted:
		return "committed"
	case MsgAbort:
		return "abort"
	case MsgError:
		return "error"
	case MsgHeartbeat:
		return "heartbeat"
	}
	return fmt.Sprintf("msgtype(%d)", uint8(t))
}

// Hello registers an agent.
type Hello struct {
	Pod           uint32
	NumConverters uint32
}

// ConfigEntry assigns one converter a configuration.
type ConfigEntry struct {
	Converter uint32
	Config    converter.Config
}

// Stage stages a set of converter configurations under an epoch.
type Stage struct {
	Epoch   uint64
	Entries []ConfigEntry
}

// Ack acknowledges a stage or commit for an epoch.
type Ack struct {
	Epoch uint64
	Pod   uint32
}

// Commit activates a staged epoch (also used for Abort).
type Commit struct {
	Epoch uint64
}

// ErrorMsg reports a failure.
type ErrorMsg struct {
	Epoch uint64
	Pod   uint32
	Text  string
}

// WriteFrame encodes one message with the standard header.
func WriteFrame(w io.Writer, t MsgType, payload []byte) error {
	if len(payload) > MaxPayload {
		return fmt.Errorf("ctrl: payload %d exceeds limit", len(payload))
	}
	hdr := make([]byte, headerLen)
	binary.BigEndian.PutUint16(hdr[0:2], Magic)
	hdr[2] = Version
	hdr[3] = uint8(t)
	binary.BigEndian.PutUint32(hdr[4:8], uint32(len(payload)))
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// ReadFrame decodes one message header and payload.
func ReadFrame(r io.Reader) (MsgType, []byte, error) {
	hdr := make([]byte, headerLen)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return 0, nil, err
	}
	if binary.BigEndian.Uint16(hdr[0:2]) != Magic {
		return 0, nil, fmt.Errorf("ctrl: bad magic %#x", binary.BigEndian.Uint16(hdr[0:2]))
	}
	if hdr[2] != Version {
		return 0, nil, fmt.Errorf("ctrl: unsupported version %d", hdr[2])
	}
	t := MsgType(hdr[3])
	n := binary.BigEndian.Uint32(hdr[4:8])
	if n > MaxPayload {
		return 0, nil, fmt.Errorf("ctrl: payload length %d exceeds limit", n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, err
	}
	return t, payload, nil
}

// Marshal/unmarshal helpers. All integers are big-endian.

// MarshalHello encodes a Hello payload.
func MarshalHello(h Hello) []byte {
	b := make([]byte, 8)
	binary.BigEndian.PutUint32(b[0:4], h.Pod)
	binary.BigEndian.PutUint32(b[4:8], h.NumConverters)
	return b
}

// UnmarshalHello decodes a Hello payload.
func UnmarshalHello(b []byte) (Hello, error) {
	if len(b) != 8 {
		return Hello{}, fmt.Errorf("ctrl: hello payload %d bytes, want 8", len(b))
	}
	return Hello{
		Pod:           binary.BigEndian.Uint32(b[0:4]),
		NumConverters: binary.BigEndian.Uint32(b[4:8]),
	}, nil
}

// MarshalStage encodes a Stage payload.
func MarshalStage(s Stage) []byte {
	b := make([]byte, 12+5*len(s.Entries))
	binary.BigEndian.PutUint64(b[0:8], s.Epoch)
	binary.BigEndian.PutUint32(b[8:12], uint32(len(s.Entries)))
	off := 12
	for _, e := range s.Entries {
		binary.BigEndian.PutUint32(b[off:off+4], e.Converter)
		b[off+4] = uint8(e.Config)
		off += 5
	}
	return b
}

// UnmarshalStage decodes a Stage payload.
func UnmarshalStage(b []byte) (Stage, error) {
	if len(b) < 12 {
		return Stage{}, fmt.Errorf("ctrl: stage payload %d bytes, want >= 12", len(b))
	}
	s := Stage{Epoch: binary.BigEndian.Uint64(b[0:8])}
	// Compare in 64 bits: 5*n wraps in uint32, and a wrapped count would
	// pass the check and size the entry slice from the forged n.
	n := binary.BigEndian.Uint32(b[8:12])
	if uint64(len(b)-12) != 5*uint64(n) {
		return Stage{}, fmt.Errorf("ctrl: stage payload %d bytes for %d entries", len(b), n)
	}
	s.Entries = make([]ConfigEntry, n)
	off := 12
	for i := range s.Entries {
		s.Entries[i] = ConfigEntry{
			Converter: binary.BigEndian.Uint32(b[off : off+4]),
			Config:    converter.Config(b[off+4]),
		}
		off += 5
	}
	return s, nil
}

// MarshalAck encodes an Ack payload.
func MarshalAck(a Ack) []byte {
	b := make([]byte, 12)
	binary.BigEndian.PutUint64(b[0:8], a.Epoch)
	binary.BigEndian.PutUint32(b[8:12], a.Pod)
	return b
}

// UnmarshalAck decodes an Ack payload.
func UnmarshalAck(b []byte) (Ack, error) {
	if len(b) != 12 {
		return Ack{}, fmt.Errorf("ctrl: ack payload %d bytes, want 12", len(b))
	}
	return Ack{
		Epoch: binary.BigEndian.Uint64(b[0:8]),
		Pod:   binary.BigEndian.Uint32(b[8:12]),
	}, nil
}

// MarshalCommit encodes a Commit payload.
func MarshalCommit(c Commit) []byte {
	b := make([]byte, 8)
	binary.BigEndian.PutUint64(b, c.Epoch)
	return b
}

// UnmarshalCommit decodes a Commit payload.
func UnmarshalCommit(b []byte) (Commit, error) {
	if len(b) != 8 {
		return Commit{}, fmt.Errorf("ctrl: commit payload %d bytes, want 8", len(b))
	}
	return Commit{Epoch: binary.BigEndian.Uint64(b)}, nil
}

// MarshalError encodes an ErrorMsg payload.
func MarshalError(e ErrorMsg) []byte {
	b := make([]byte, 12+len(e.Text))
	binary.BigEndian.PutUint64(b[0:8], e.Epoch)
	binary.BigEndian.PutUint32(b[8:12], e.Pod)
	copy(b[12:], e.Text)
	return b
}

// UnmarshalError decodes an ErrorMsg payload.
func UnmarshalError(b []byte) (ErrorMsg, error) {
	if len(b) < 12 {
		return ErrorMsg{}, fmt.Errorf("ctrl: error payload %d bytes, want >= 12", len(b))
	}
	return ErrorMsg{
		Epoch: binary.BigEndian.Uint64(b[0:8]),
		Pod:   binary.BigEndian.Uint32(b[8:12]),
		Text:  string(b[12:]),
	}, nil
}
