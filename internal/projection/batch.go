package projection

import (
	"fmt"

	"authdb/internal/digest"
	"authdb/internal/sigagg"
)

// digestChunk is the fewest records worth a worker of their own when
// their attribute digests are fanned out: below it, starting the
// goroutine costs more than the hashing it takes over.
const digestChunk = 64

// SignRecords produces the per-attribute signatures of many records in
// one pass through the signing pool: digest production and signing are
// fanned across the pool's workers and routed through the scheme's
// batch primitives (CRT signing for condensed RSA, precomputed tables
// for BAS), exactly like chained-record signing. The output is
// byte-identical to one scheme.Sign per attribute over its AttrDigest —
// parallelism and batching change the schedule, never the signatures.
//
// attrs[i] are record i's attribute values, tss[i] its version
// timestamp. Records may have different attribute counts; a record with
// none contributes an empty (non-nil) slice.
func SignRecords(pool *sigagg.Pool, priv sigagg.PrivateKey,
	rids []uint64, attrs [][][]byte, tss []int64) ([][]sigagg.Signature, error) {

	if len(attrs) != len(rids) || len(tss) != len(rids) {
		return nil, fmt.Errorf("projection: %d rids, %d attr sets, %d timestamps",
			len(rids), len(attrs), len(tss))
	}
	// Record i's values are flat[offs[i]:offs[i+1]]: one digest array for
	// the batch, filled a chunk of records per worker through one Writer
	// each.
	offs := make([]int, len(rids)+1)
	for i, a := range attrs {
		offs[i+1] = offs[i] + len(a)
	}
	total := offs[len(rids)]
	flat := make([]digest.Digest, total)
	sigagg.ForChunks(len(rids), pool.Workers(), digestChunk, func(lo, hi int) error {
		w := digest.NewWriter(preimageHint)
		for i := lo; i < hi; i++ {
			for k, v := range attrs[i] {
				flat[offs[i]+k] = AttrDigest(w, rids[i], k, v, tss[i])
			}
		}
		return nil
	})
	sigs, err := pool.SignIndexed(priv, total, func(i int) []byte { return flat[i][:] })
	if err != nil {
		return nil, fmt.Errorf("projection: batch attr signing: %w", err)
	}
	out := make([][]sigagg.Signature, len(rids))
	for i := range out {
		out[i] = sigs[offs[i]:offs[i+1]:offs[i+1]]
	}
	return out, nil
}
