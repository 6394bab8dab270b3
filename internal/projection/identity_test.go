package projection

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"testing"

	"authdb/internal/sigagg"
)

// TestIdentityReadsBack: a projection answer's identity holds each field
// its digests and aggregate read exactly once, with every count and
// length beside what it counts, so the answer reads back from its bytes
// alone (readIdentity knows only the documented layout) — and two
// answers with equal identities are the same answer.
func TestIdentityReadsBack(t *testing.T) {
	answers := []*Answer{
		{AttrIdxs: []int{}, Rows: []Row{}, Agg: sigagg.Signature{}},
		{AttrIdxs: []int{0, 2}, Rows: []Row{}, Agg: sigagg.Signature("agg")},
		{AttrIdxs: []int{3}, Rows: []Row{{RID: 7, TS: 9, Values: [][]byte{{}}}}, Agg: sigagg.Signature("a")},
		{AttrIdxs: []int{0, 2}, Rows: []Row{
			{RID: 1, TS: 101, Values: [][]byte{[]byte("ab"), []byte("c")}},
			{RID: 2, TS: 102, Values: [][]byte{[]byte("de"), []byte("f")}},
			{RID: 3, TS: 103, Values: [][]byte{[]byte("g")}}, // short: Digests refuses it, the identity still holds it
		}, Agg: sigagg.Signature("aggregate")},
	}
	for i, a := range answers {
		id := a.AppendIdentity(nil)
		back, err := readIdentity(id)
		if err != nil {
			t.Fatalf("answer %d: %v", i, err)
		}
		if !reflect.DeepEqual(back, a) {
			t.Fatalf("answer %d reads back as another:\n%+v\n%+v", i, a, back)
		}
		if !bytes.Equal(back.AppendIdentity(nil), id) {
			t.Fatalf("answer %d: the answer read back has another identity", i)
		}
	}
}

// readIdentity is (*Answer).AppendIdentity's layout read back: a 'p'
// tag; the slot count and slots; the row count, and per row its rid, ts,
// value count and length-prefixed values; the length-prefixed aggregate.
// Every integer is 8 bytes, big-endian.
func readIdentity(id []byte) (*Answer, error) {
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
	if len(id) == 0 || id[0] != 'p' {
		return nil, errors.New("not a projection identity")
	}
	id = id[1:]
	a := &Answer{AttrIdxs: []int{}, Rows: []Row{}}
	for n := u64(); n > 0 && err == nil; n-- {
		a.AttrIdxs = append(a.AttrIdxs, int(u64()))
	}
	for n := u64(); n > 0 && err == nil; n-- {
		row := Row{RID: u64(), TS: int64(u64())}
		for k := u64(); k > 0 && err == nil; k-- {
			row.Values = append(row.Values, field())
		}
		a.Rows = append(a.Rows, row)
	}
	a.Agg = sigagg.Signature(field())
	if err == nil && len(id) != 0 {
		err = errors.New("bytes past the aggregate")
	}
	return a, err
}
