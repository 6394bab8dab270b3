package wire

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"authdb/internal/freshness"
	"authdb/internal/sigagg"
)

func TestFrameRoundTrip(t *testing.T) {
	var sock bytes.Buffer
	payloads := [][]byte{[]byte("one"), {}, bytes.Repeat([]byte{0xAB}, 70_000)}
	for _, p := range payloads {
		if err := WriteFrame(&sock, p); err != nil {
			t.Fatal(err)
		}
	}
	var buf []byte
	for i, want := range payloads {
		got, err := ReadFrame(&sock, buf, 0)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame %d: got %d bytes, want %d", i, len(got), len(want))
		}
		buf = got
	}
	if _, err := ReadFrame(&sock, buf, 0); err != io.EOF {
		t.Fatalf("after last frame: %v, want io.EOF", err)
	}
}

func TestFrameLimitsAndTruncation(t *testing.T) {
	var sock bytes.Buffer
	if err := WriteFrame(&sock, make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFrame(bytes.NewReader(sock.Bytes()), nil, 99); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("oversized frame: %v, want ErrCorrupt", err)
	}
	// Truncated header and truncated payload both fail loudly.
	if _, err := ReadFrame(bytes.NewReader(sock.Bytes()[:2]), nil, 0); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncated header: %v, want ErrCorrupt", err)
	}
	if _, err := ReadFrame(bytes.NewReader(sock.Bytes()[:50]), nil, 0); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncated payload: %v, want ErrCorrupt", err)
	}
}

func TestSummariesRoundTrip(t *testing.T) {
	sums := []freshness.Summary{
		{Seq: 1, PeriodStart: 0, TS: 10, Compressed: []byte{1, 2}, Sig: sigagg.Signature("sig1")},
		{Seq: 2, PeriodStart: 10, TS: 20, Compressed: []byte{3}, Sig: sigagg.Signature("sig2")},
	}
	data := AppendSummaries(GetBuffer(), sums)
	defer PutBuffer(data)
	got, err := DecodeSummaries(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Seq != 1 || got[1].TS != 20 || string(got[1].Sig) != "sig2" {
		t.Fatalf("decoded %+v", got)
	}
	// Decoded fields must be copies, so the frame buffer can be reused.
	data[len(data)-1] ^= 0xFF
	if string(got[1].Sig) != "sig2" {
		t.Fatal("decoded summary aliases the frame buffer")
	}
	empty, err := DecodeSummaries(AppendSummaries(nil, nil))
	if err != nil || len(empty) != 0 {
		t.Fatalf("empty batch: %v %v", empty, err)
	}
}

func TestErrorRoundTrip(t *testing.T) {
	data := AppendErrorCode(nil, ErrCodeGeneric, "core: inverted range [9,3]")
	if k, _ := Kind(data); k != 'E' {
		t.Fatalf("kind=%q", k)
	}
	code, msg, err := DecodeErrorCode(data)
	if err != nil || code != ErrCodeGeneric || msg != "core: inverted range [9,3]" {
		t.Fatalf("code=%d msg=%q err=%v", code, msg, err)
	}
}

func TestKindRejectsBadVersion(t *testing.T) {
	if _, err := Kind([]byte{99, 'Q'}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bad version: %v", err)
	}
	if _, err := Kind([]byte{Version}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("short message: %v", err)
	}
}
