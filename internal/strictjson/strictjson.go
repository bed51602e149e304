// Package strictjson is the one strict JSON decoder behind every spec
// and wire payload the repository accepts: job specs, method params,
// keep-alive and fault specs, and distributed-sweep frames. A document
// is exactly one JSON value with no unknown object fields, followed by
// nothing but whitespace.
package strictjson

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
)

// ErrTrailingData reports input left after the JSON value: a second
// value, stray closing brackets, or garbage.
var ErrTrailingData = errors.New("trailing data after JSON value")

// Decode decodes data into v, rejecting unknown object fields and any
// non-whitespace after the value. The end check reads the next token
// and requires io.EOF: Decoder.More reports false before a closing
// bracket, so it would accept "{}}" and "{}]".
func Decode(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return ErrTrailingData
	}
	return nil
}
