package distsweep

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"sync"

	"slscost/internal/opt"
	"slscost/internal/strictjson"
)

// ProtocolVersion is the wire-format generation this build speaks.
// Every frame carries it; the handshake rejects a peer whose version
// differs. Bump it for any incompatible change to the frame layout or
// message payloads (see CONTRIBUTING.md).
const ProtocolVersion = 1

// MaxFramePayload bounds a single frame's payload so a corrupt or
// hostile length prefix cannot make the receiver allocate gigabytes.
// The largest legitimate frame is a Welcome carrying the canonical
// spec, well under this.
const MaxFramePayload = 16 << 20

// frameHeaderSize is the fixed prefix of every frame:
// 4-byte big-endian length, then the (version, type) bytes the length
// counts together with the payload.
const frameHeaderSize = 4

// MsgType tags a frame's payload shape.
type MsgType byte

// Frame types. Hello/Welcome/Reject form the handshake; Assign, Row,
// ShardDone and ShardFail move work; Ping keeps an assigned worker's
// heartbeat alive; Complete tells workers the whole grid is durable.
const (
	MsgHello     MsgType = 1 // worker → coordinator: open handshake
	MsgWelcome   MsgType = 2 // coordinator → worker: spec hash + canonical spec + shard layout
	MsgReject    MsgType = 3 // coordinator → worker: typed handshake rejection
	MsgAssign    MsgType = 4 // coordinator → worker: shard grant [start, end)
	MsgRow       MsgType = 5 // worker → coordinator: one completed evaluation
	MsgShardDone MsgType = 6 // worker → coordinator: shard fully streamed
	MsgShardFail MsgType = 7 // worker → coordinator: shard evaluation failed (fatal)
	MsgPing      MsgType = 8 // worker → coordinator: liveness heartbeat
	MsgComplete  MsgType = 9 // coordinator → worker: all shards durable, disconnect
)

const maxMsgType = MsgComplete

// Frame is one decoded protocol frame. The payload is opaque at this
// layer; message-level decoding happens against the struct matching
// Type.
type Frame struct {
	Type    MsgType
	Payload []byte
}

// FrameSizeError reports a length prefix outside the valid range
// (shorter than the version+type bytes, or larger than
// MaxFramePayload allows).
type FrameSizeError struct {
	Len int
}

// Error implements the error interface.
func (e *FrameSizeError) Error() string {
	return fmt.Sprintf("distsweep: frame length %d outside [2, %d]", e.Len, MaxFramePayload+2)
}

// TruncatedError reports a frame cut short: the buffer or stream
// ended before the declared length was available.
type TruncatedError struct {
	Have, Want int
}

// Error implements the error interface.
func (e *TruncatedError) Error() string {
	return fmt.Sprintf("distsweep: truncated frame: have %d bytes, want %d", e.Have, e.Want)
}

// VersionError reports a frame or handshake from a peer speaking a
// different protocol generation.
type VersionError struct {
	Got, Want byte
}

// Error implements the error interface.
func (e *VersionError) Error() string {
	return fmt.Sprintf("distsweep: protocol version %d, this build speaks %d", e.Got, e.Want)
}

// ProtocolError reports a structurally valid frame that violates the
// protocol: an unknown message type, an undecodable payload, or a
// message arriving in a state where it makes no sense.
type ProtocolError struct {
	Reason string
}

// Error implements the error interface.
func (e *ProtocolError) Error() string {
	return "distsweep: protocol error: " + e.Reason
}

// SpecHashError reports a worker whose re-canonicalized spec hashes
// differently from the coordinator's announcement — the two sides
// would silently compute different sweeps, so the run aborts instead.
type SpecHashError struct {
	Got, Want string
}

// Error implements the error interface.
func (e *SpecHashError) Error() string {
	return fmt.Sprintf("distsweep: spec hash mismatch: worker computed %s, coordinator announced %s", e.Got, e.Want)
}

// RejectError is what a worker surfaces when the coordinator refuses
// its handshake.
type RejectError struct {
	Code    string
	Message string
}

// Error implements the error interface.
func (e *RejectError) Error() string {
	return fmt.Sprintf("distsweep: coordinator rejected handshake (%s): %s", e.Code, e.Message)
}

// MismatchError reports a replayed evaluation whose bytes differ from
// the durable first write for the same grid index. Evaluations are
// pure functions of (spec, index), so this can only mean corruption
// or a heterogeneous worker — the run fails loudly rather than pick.
type MismatchError struct {
	Shard, Index int
}

// Error implements the error interface.
func (e *MismatchError) Error() string {
	return fmt.Sprintf("distsweep: shard %d grid index %d: replayed result differs from durable checkpoint", e.Shard, e.Index)
}

// CheckpointMismatchError reports a checkpoint directory whose
// manifest belongs to a different sweep spec or shard layout.
type CheckpointMismatchError struct {
	Dir       string
	Got, Want string
}

// Error implements the error interface.
func (e *CheckpointMismatchError) Error() string {
	return fmt.Sprintf("distsweep: checkpoint dir %s holds %s, this run is %s", e.Dir, e.Got, e.Want)
}

// EvalError reports a shard whose evaluations failed on the worker.
// Grid indices come from opt.SweepError so the operator can pin the
// failing candidates.
type EvalError struct {
	Shard   int
	Indices []int
	Message string
}

// Error implements the error interface.
func (e *EvalError) Error() string {
	if len(e.Indices) == 0 {
		return fmt.Sprintf("distsweep: shard %d failed on worker: %s", e.Shard, e.Message)
	}
	return fmt.Sprintf("distsweep: shard %d failed on worker at grid indices %v: %s", e.Shard, e.Indices, e.Message)
}

// EncodeFrame serializes a frame: a 4-byte big-endian length counting
// the version byte, the type byte, and the payload, followed by those
// bytes.
func EncodeFrame(f Frame) []byte {
	buf := make([]byte, frameHeaderSize+2+len(f.Payload))
	binary.BigEndian.PutUint32(buf, uint32(2+len(f.Payload)))
	buf[4] = ProtocolVersion
	buf[5] = byte(f.Type)
	copy(buf[6:], f.Payload)
	return buf
}

// DecodeFrame parses one frame from the front of data, returning the
// frame and the number of bytes consumed. All failure modes are typed
// — *FrameSizeError, *TruncatedError, *VersionError, *ProtocolError —
// and none panic, whatever the input (FuzzDecodeFrame holds it to
// that).
func DecodeFrame(data []byte) (Frame, int, error) {
	if len(data) < frameHeaderSize {
		return Frame{}, 0, &TruncatedError{Have: len(data), Want: frameHeaderSize}
	}
	n := binary.BigEndian.Uint32(data)
	if n < 2 || n > MaxFramePayload+2 {
		return Frame{}, 0, &FrameSizeError{Len: int(int64(n))}
	}
	total := frameHeaderSize + int(n)
	if len(data) < total {
		return Frame{}, 0, &TruncatedError{Have: len(data), Want: total}
	}
	if data[4] != ProtocolVersion {
		return Frame{}, 0, &VersionError{Got: data[4], Want: ProtocolVersion}
	}
	t := MsgType(data[5])
	if t == 0 || t > maxMsgType {
		return Frame{}, 0, &ProtocolError{Reason: fmt.Sprintf("unknown message type %d", data[5])}
	}
	return Frame{Type: t, Payload: data[6:total]}, total, nil
}

// readFrame reads exactly one frame from the stream. Errors from the
// reader pass through unwrapped so callers can distinguish a dead
// connection from a protocol violation.
func readFrame(r io.Reader) (Frame, error) {
	hdr := make([]byte, frameHeaderSize)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return Frame{}, err
	}
	n := binary.BigEndian.Uint32(hdr)
	if n < 2 || n > MaxFramePayload+2 {
		return Frame{}, &FrameSizeError{Len: int(int64(n))}
	}
	buf := make([]byte, frameHeaderSize+n)
	copy(buf, hdr)
	if _, err := io.ReadFull(r, buf[frameHeaderSize:]); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return Frame{}, err
	}
	f, _, err := DecodeFrame(buf)
	return f, err
}

// writeMsg marshals v and writes it as a single frame under mu, so
// concurrent senders (the ping goroutine and the row stream) never
// interleave bytes.
func writeMsg(w io.Writer, mu *sync.Mutex, t MsgType, v any) error {
	payload, err := json.Marshal(v)
	if err != nil {
		return err
	}
	buf := EncodeFrame(Frame{Type: t, Payload: payload})
	mu.Lock()
	defer mu.Unlock()
	_, err = w.Write(buf)
	return err
}

// decodeMsg strictly unmarshals a frame payload into dst; unknown
// fields are a protocol error, because both ends gate on
// ProtocolVersion and must agree on every payload shape.
func decodeMsg(payload []byte, dst any) error {
	if err := strictjson.Decode(payload, dst); err != nil {
		return &ProtocolError{Reason: "bad payload: " + err.Error()}
	}
	return nil
}

// helloMsg opens the handshake; the frame header already carries the
// version, repeating it in the payload lets the coordinator reject
// with a structured reason even if framing evolves.
type helloMsg struct {
	Version byte `json:"version"`
}

// welcomeMsg answers a valid hello with everything a worker needs to
// verify it is about to compute the right sweep.
type welcomeMsg struct {
	Version  byte            `json:"version"`
	SpecHash string          `json:"spec_hash"`
	Spec     json.RawMessage `json:"spec"`
	Shards   int             `json:"shards"`
	Jobs     int             `json:"jobs"`
}

// rejectMsg answers an invalid hello.
type rejectMsg struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// assignMsg grants a worker the contiguous grid-index range
// [Start, End) of one shard.
type assignMsg struct {
	Shard int `json:"shard"`
	Start int `json:"start"`
	End   int `json:"end"`
}

// rowMsg carries one completed evaluation: the human-auditable
// opt.ResultRow for the checkpoint log plus the full opt.Result JSON
// the coordinator needs to rebuild summaries byte-identically.
type rowMsg struct {
	Shard  int             `json:"shard"`
	Index  int             `json:"index"`
	Row    opt.ResultRow   `json:"row"`
	Result json.RawMessage `json:"result"`
}

// shardDoneMsg declares every index of the shard streamed.
type shardDoneMsg struct {
	Shard int `json:"shard"`
	Rows  int `json:"rows"`
}

// shardFailMsg reports an evaluation failure; the indices are the
// failing grid positions from opt.SweepError.
type shardFailMsg struct {
	Shard   int    `json:"shard"`
	Indices []int  `json:"indices,omitempty"`
	Error   string `json:"error"`
}

// pingMsg is an empty heartbeat.
type pingMsg struct{}

// completeMsg tells a worker the run is durable and it may exit.
type completeMsg struct{}
