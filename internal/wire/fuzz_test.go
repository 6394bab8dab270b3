package wire

// Fuzz targets for every decoder that faces untrusted bytes. The seed
// corpus (valid encodings plus systematic mutations) runs as normal
// tests — `go test` executes every f.Add seed without -fuzz — so the
// no-panic and bounded-allocation guarantees are regression-checked on
// every push; CI then gives each target a 10 s `-fuzz` budget, and
// `go test -fuzz='^Fuzz...$' ./internal/wire/` explores further locally.

import (
	"bytes"
	"testing"

	"authdb/internal/freshness"
)

// seedFrames returns valid wire encodings to anchor the corpora.
func seedFrames(t testing.TB) [][]byte {
	t.Helper()
	sys := system(t, 30)
	closeMsg, err := sys.DA.ClosePeriod(1_000)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Deliver(closeMsg); err != nil {
		t.Fatal(err)
	}
	ans, err := sys.QS.Query(50, 200)
	if err != nil {
		t.Fatal(err)
	}
	ansBytes, err := EncodeAnswer(ans)
	if err != nil {
		t.Fatal(err)
	}
	sums := sys.QS.SummariesSince(0)
	comp := testComposite(t)
	compBytes, err := AppendCompositeCore(nil, comp)
	if err != nil {
		t.Fatal(err)
	}
	joinReq, err := AppendPlanReq(nil, KindPlanJoin, []byte("plan-bytes"), []RelSince{{Name: "outer", SinceSeq: 7}, {Name: "inner"}})
	if err != nil {
		t.Fatal(err)
	}
	return [][]byte{
		ansBytes,
		EncodeUpdateMsg(closeMsg),
		AppendRelTails(compBytes, comp.Tails),
		AppendBootstrap(nil, 42, sys.QS.Snapshot()),
		AppendWalRecord(nil, 11, 15, EncodeUpdateMsg(closeMsg)),
		joinReq,
		AppendRelSumsReq(nil, "inner", 42, -1),
		AppendReplSubReq(nil, 12345),
		AppendSummaries(nil, sums),
		AppendSummaries(nil, []freshness.Summary{}),
		AppendQueryReq(nil, -5, 1<<40, 9),
		AppendSummariesReq(nil, 123),
		AppendErrorCode(nil, ErrCodeOverloaded, "overloaded"),
		AppendError(nil, ""),
	}
}

// mutate adds systematic corruptions of each seed: single-bit flips at
// spread positions plus truncations, so the checked-in corpus already
// covers the classic torn/garbled-frame shapes.
func mutate(f *testing.F, seeds [][]byte) {
	for _, s := range seeds {
		f.Add(s)
		for i := 0; i < len(s); i += 1 + len(s)/16 {
			m := append([]byte(nil), s...)
			m[i] ^= 0x80
			f.Add(m)
		}
		for _, cut := range []int{0, 1, len(s) / 2, len(s) - 1} {
			if cut >= 0 && cut < len(s) {
				f.Add(append([]byte(nil), s[:cut]...))
			}
		}
	}
}

// FuzzReadFrame: framing must never panic and never allocate beyond the
// configured payload cap, whatever length the header claims.
func FuzzReadFrame(f *testing.F) {
	var framed [][]byte
	for _, s := range seedFrames(f) {
		var b bytes.Buffer
		if err := WriteFrame(&b, s); err != nil {
			f.Fatal(err)
		}
		framed = append(framed, b.Bytes())
	}
	// Hostile headers: oversized, maximal, zero, torn.
	framed = append(framed,
		[]byte{0xff, 0xff, 0xff, 0xff, 1},
		[]byte{0x00, 0x01, 0x00, 0x01},
		[]byte{0, 0, 0, 0},
		[]byte{0, 0},
	)
	mutate(f, framed)
	const max = 1 << 16
	f.Fuzz(func(t *testing.T, data []byte) {
		payload, err := ReadFrame(bytes.NewReader(data), nil, max)
		if err != nil {
			return
		}
		if len(payload) > max || cap(payload) > max {
			t.Fatalf("frame allocation exceeded cap: len=%d cap=%d", len(payload), cap(payload))
		}
	})
}

// FuzzDecodeAnswer: the full answer decoder against arbitrary bytes.
func FuzzDecodeAnswer(f *testing.F) {
	mutate(f, seedFrames(f))
	f.Fuzz(func(t *testing.T, data []byte) {
		ans, err := DecodeAnswer(data)
		if err == nil && ans == nil {
			t.Fatal("nil answer without error")
		}
	})
}

// FuzzDecodeUpdateMsg: the dissemination-stream decoder (what a QS
// applies) against arbitrary bytes.
func FuzzDecodeUpdateMsg(f *testing.F) {
	mutate(f, seedFrames(f))
	f.Fuzz(func(t *testing.T, data []byte) {
		msg, err := DecodeUpdateMsg(data)
		if err == nil && msg == nil {
			t.Fatal("nil message without error")
		}
	})
}

// FuzzDecodeSummaries: the certified-summary batch decoder against
// arbitrary bytes.
func FuzzDecodeSummaries(f *testing.F) {
	mutate(f, seedFrames(f))
	f.Fuzz(func(t *testing.T, data []byte) {
		DecodeSummaries(data)
	})
}

// FuzzDecodeRequests: the server-side request decoders plus the shared
// kind/error helpers — the bytes a hostile client controls.
func FuzzDecodeRequests(f *testing.F) {
	mutate(f, seedFrames(f))
	f.Fuzz(func(t *testing.T, data []byte) {
		Kind(data)
		DecodeQueryReq(data)
		DecodeSummariesReq(data)
		DecodeErrorCode(data)
		DecodePlanReq(data)
		DecodeRelSumsReq(data)
		DecodeReplSubReq(data)
	})
}

// FuzzDecodeComposite: the plan-answer decoder (what a client runs on a
// replica's 'C' frame) against arbitrary bytes.
func FuzzDecodeComposite(f *testing.F) {
	mutate(f, seedFrames(f))
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := DecodeComposite(data)
		if err == nil && c == nil {
			t.Fatal("nil composite without error")
		}
	})
}

// FuzzDecodeBootstrap: the snapshot-image decoder (what a follower runs
// on a primary's 'B' frame) against arbitrary bytes.
func FuzzDecodeBootstrap(f *testing.F) {
	mutate(f, seedFrames(f))
	f.Fuzz(func(t *testing.T, data []byte) {
		_, st, err := DecodeBootstrap(data)
		if err == nil && st == nil {
			t.Fatal("nil state without error")
		}
	})
}

// FuzzDecodeWalRecord: the replication-stream decoder (a follower, on
// each 'W' frame) against arbitrary bytes.
func FuzzDecodeWalRecord(f *testing.F) {
	mutate(f, seedFrames(f))
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _, msg, err := DecodeWalRecord(data)
		if err == nil && msg == nil {
			t.Fatal("nil message without error")
		}
	})
}
