package chain_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"slices"
	"testing"

	"authdb/internal/chain"
	"authdb/internal/sigagg"
)

// FuzzClaimIdentity: equal identities imply equal Digests and Agg — the
// property that lets a verifier stand a claim's content name in for its
// digest name. Each input is read as two answers. An answer read back
// from another's identity (readIdentity, which knows only the documented
// layout) must have that answer's identity, digests and aggregate: the
// identity holds everything they read, each field exactly once. And the
// two answers, whenever their identities are equal, must agree on both.
func FuzzClaimIdentity(f *testing.F) {
	f.Add([]byte{}, []byte{})
	f.Add([]byte{1, 9, 3, 7, 7, 7, 2, 2, 'a', 'b', 1, 'c', 5, 5, 5, 5, 4, 'a', 'g', 'g'}, []byte{1, 9, 3})
	// Two attributes whose boundary moved, and an anchored empty answer.
	f.Add([]byte{0, 9, 1, 1, 2, 3, 2, 2, 'a', 'b', 1, 'c', 0, 0, 0, 0, 0, 3, 'x', 'y', 'z'},
		[]byte{0, 9, 1, 1, 2, 3, 2, 1, 'a', 2, 'b', 'c', 0, 0, 0, 0, 0, 3, 'x', 'y', 'z'})
	f.Add([]byte{4, 2, 0, 1, 2, 3, 4, 5, 1, 7, 1, 2, 3, 1, 3, 'q', 'q', 'q', 6, 6, 2, 'a', 'b'}, []byte{4, 2, 0})
	f.Fuzz(func(t *testing.T, x, y []byte) {
		a, b := answerFrom(x), answerFrom(y)
		for _, ans := range []*chain.Answer{a, b} {
			id := ans.AppendIdentity(nil)
			back, err := readIdentity(id)
			if err != nil {
				t.Fatalf("the identity of %+v does not read back: %v", ans, err)
			}
			if !bytes.Equal(back.AppendIdentity(nil), id) {
				t.Fatalf("an answer read back from an identity has another identity")
			}
			sameClaim(t, ans, back)
		}
		if bytes.Equal(a.AppendIdentity(nil), b.AppendIdentity(nil)) {
			sameClaim(t, a, b)
		}
	})
}

// sameClaim fails unless a and b have the same digests and aggregate.
func sameClaim(t *testing.T, a, b *chain.Answer) {
	t.Helper()
	if !slices.EqualFunc(a.Digests(), b.Digests(), bytes.Equal) || !bytes.Equal(a.Agg, b.Agg) {
		t.Fatalf("equal identities, different claims:\n%+v\n%+v", a, b)
	}
}

// answerFrom reads an answer of a few small records from fuzz bytes;
// missing bytes read as zero. Nothing here checks structure: the identity
// must hold for any answer, well-formed or not.
func answerFrom(data []byte) *chain.Answer {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	bytesOf := func(n int) []byte {
		out := make([]byte, n)
		for i := range out {
			out[i] = next()
		}
		return out
	}
	record := func() *chain.Record {
		r := &chain.Record{RID: uint64(next()), Key: int64(int8(next())), TS: int64(next())}
		for n := next() % 3; n > 0; n-- {
			r.Attrs = append(r.Attrs, bytesOf(int(next()%4)))
		}
		return r
	}
	ref := func() chain.Ref { return chain.Ref{Key: int64(int8(next())), RID: uint64(next())} }
	a := &chain.Answer{Lo: int64(int8(next())), Hi: int64(int8(next()))}
	for n := next() % 4; n > 0; n-- {
		a.Records = append(a.Records, record())
	}
	a.Left, a.Right = ref(), ref()
	if next()%2 == 1 {
		a.Anchor, a.AnchorLeft = record(), ref()
	}
	a.Agg = sigagg.Signature(bytesOf(int(next() % 5)))
	return a
}

// readIdentity is chain.(*Answer).AppendIdentity's layout read back: a
// 'c' tag; lo, hi and the record count; each record's rid, key, ts,
// attribute count and length-prefixed attributes; the left and right refs
// (key, rid); an anchor flag, then the anchor record and its left ref;
// the length-prefixed aggregate. Every integer is 8 bytes, big-endian.
func readIdentity(id []byte) (*chain.Answer, error) {
	errShort := errors.New("identity ends early")
	var err error
	u64 := func() uint64 {
		if len(id) < 8 {
			err = errShort
			return 0
		}
		v := binary.BigEndian.Uint64(id)
		id = id[8:]
		return v
	}
	field := func() []byte {
		n := u64()
		if uint64(len(id)) < n {
			err = errShort
			return nil
		}
		v := id[:n:n]
		id = id[n:]
		return v
	}
	record := func() *chain.Record {
		r := &chain.Record{RID: u64(), Key: int64(u64()), TS: int64(u64())}
		for n := u64(); n > 0 && err == nil; n-- {
			r.Attrs = append(r.Attrs, field())
		}
		return r
	}
	ref := func() chain.Ref { return chain.Ref{Key: int64(u64()), RID: u64()} }
	if len(id) == 0 || id[0] != 'c' {
		return nil, errors.New("not a chain identity")
	}
	id = id[1:]
	a := &chain.Answer{Lo: int64(u64()), Hi: int64(u64())}
	for n := u64(); n > 0 && err == nil; n-- {
		a.Records = append(a.Records, record())
	}
	a.Left, a.Right = ref(), ref()
	if len(id) == 0 {
		return nil, errShort
	}
	present := id[0]
	id = id[1:]
	if present == 1 {
		a.Anchor, a.AnchorLeft = record(), ref()
	}
	a.Agg = sigagg.Signature(field())
	if err == nil && len(id) != 0 {
		err = errors.New("bytes past the aggregate")
	}
	return a, err
}
