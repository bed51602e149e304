package strictjson

import (
	"errors"
	"testing"
)

func TestDecode(t *testing.T) {
	type doc struct {
		A int `json:"a"`
	}
	for _, c := range []struct {
		in       string
		trailing bool // want ErrTrailingData rather than a decode error
		ok       bool
	}{
		{in: `{"a":1}`, ok: true},
		{in: " \n{\"a\":1}\t\r\n ", ok: true},
		{in: `{"a":1}}`, trailing: true},
		{in: `{"a":1}]`, trailing: true},
		{in: `{"a":1}]]]garbage`, trailing: true},
		{in: `{"a":1}{}`, trailing: true},
		{in: `{"a":1} 2`, trailing: true},
		{in: `{"a":1}x`, trailing: true},
		{in: `{"a":1,"b":2}`},
		{in: `{"a":1`},
		{in: ``},
	} {
		var d doc
		err := Decode([]byte(c.in), &d)
		switch {
		case c.ok && err != nil:
			t.Errorf("%q: %v", c.in, err)
		case !c.ok && err == nil:
			t.Errorf("%q accepted", c.in)
		case c.trailing && !errors.Is(err, ErrTrailingData):
			t.Errorf("%q: %v, want ErrTrailingData", c.in, err)
		}
	}
}
