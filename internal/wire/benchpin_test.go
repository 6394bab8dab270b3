package wire

import (
	"bytes"
	"testing"

	"authdb/internal/core"
)

// FuzzDecodeAnswer: the retired answer codec benchmark/ still compiles
// against (benchpin.go) against arbitrary bytes. An accepted frame is
// canonical (it re-encodes to the input), decoding allocates in
// proportion to the bytes present, and the result aliases the frame
// except for its summaries.
func FuzzDecodeAnswer(f *testing.F) {
	mutate(f, seedFrames(f))
	f.Fuzz(func(t *testing.T, in []byte) {
		data := bytes.Clone(in) // the decode takes the frame over; in is the fuzzer's
		var ans *core.Answer
		var err error
		checkDecodeAlloc(t, data, func() { ans, err = DecodeAnswer(data) })
		if err != nil {
			return
		}
		if ans == nil {
			t.Fatal("nil answer without error")
		}
		if re, err := AppendAnswer(nil, ans); err != nil || !bytes.Equal(re, data) {
			t.Fatalf("accepted frame does not re-encode to itself (err %v)", err)
		}
		checkCustody(t, data, chainViews(nil, ans.Chain), ans.Summaries)
	})
}
