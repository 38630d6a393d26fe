package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
)

// wireResp mirrors the fields of cmd/serve's JSON result that carry the
// answer.
type wireResp struct {
	Keys  []int64 `json:"keys"`
	Value *int64  `json:"value"`
	Err   string  `json:"error"`
}

var (
	keysMark  = []byte(`"keys":`)
	valueMark = []byte(`"value":`)
)

// checkResponse reports why a response to hr is not a correct answer, or
// nil. A non-200 status (a 503 shed included) is a failure. The fast
// path finds each expected payload field byte for byte; anything it
// cannot confirm is decoded and compared by value, so a correct answer
// in another JSON layout still passes.
func checkResponse(status int, body []byte, hr *httpReq, batch bool) error {
	if status != 200 {
		return fmt.Errorf("status %d: %.200s", status, body)
	}
	if payloadsMatch(body, hr.snippets) {
		return nil
	}
	var got []wireResp
	if batch {
		var env struct {
			Results []wireResp `json:"results"`
		}
		if err := json.Unmarshal(body, &env); err != nil {
			return fmt.Errorf("decode batch response: %w", err)
		}
		got = env.Results
	} else {
		var one wireResp
		if err := json.Unmarshal(body, &one); err != nil {
			return fmt.Errorf("decode response: %w", err)
		}
		got = []wireResp{one}
	}
	if len(got) != len(hr.subs) {
		return fmt.Errorf("%d results for %d requests", len(got), len(hr.subs))
	}
	for i, sr := range hr.subs {
		if err := compareAnswer(sr, got[i]); err != nil {
			return fmt.Errorf("request %d (%s, dim %d, faults %v): %w", i, sr.op, sr.cfg.Dim, sr.cfg.Faults, err)
		}
	}
	return nil
}

// payloadsMatch reports whether body's payload fields, in order, are
// exactly want: each "keys" or "value" field starts with the expected
// bytes and ends right after them, and there are no others.
func payloadsMatch(body []byte, want [][]byte) bool {
	pos := 0
	for _, w := range want {
		at := nextMark(body, pos)
		if at < 0 || !bytes.HasPrefix(body[at:], w) {
			return false
		}
		end := at + len(w)
		if end >= len(body) || (body[end] != ',' && body[end] != '}') {
			return false
		}
		pos = end
	}
	return nextMark(body, pos) < 0
}

// nextMark returns the offset of the first payload field at or after
// pos, or -1.
func nextMark(body []byte, pos int) int {
	k := bytes.Index(body[pos:], keysMark)
	v := bytes.Index(body[pos:], valueMark)
	switch {
	case k < 0 && v < 0:
		return -1
	case k < 0 || (v >= 0 && v < k):
		return pos + v
	}
	return pos + k
}

func compareAnswer(sr subReq, got wireResp) error {
	if got.Err != "" {
		return fmt.Errorf("error %q", got.Err)
	}
	if sr.op == "kth" || sr.op == "median" {
		if got.Value == nil || *got.Value != sr.want.Value {
			return fmt.Errorf("value %v, want %d", got.Value, sr.want.Value)
		}
		return nil
	}
	if !slices.Equal(got.Keys, sr.want.Keys) {
		return fmt.Errorf("wrong keys (%d returned, %d expected)", len(got.Keys), len(sr.want.Keys))
	}
	return nil
}
