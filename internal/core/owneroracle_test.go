package core

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"

	"authdb/internal/freshness"
	"authdb/internal/sigagg"
	"authdb/internal/sigagg/bas"
	"authdb/internal/sigagg/xortest"
)

// The owner's differential: the DataAggregator held to the protocol
// written the obvious way. A seeded schedule of owner operations — a
// shuffled load into the empty relation, merge loads, inserts (numbered
// and with their own rid), updates, deletes, period closes, renewals, a
// Snapshot → Restore into a fresh owner, and refused operations (a key
// already stored, a rid already held or repeated, an unknown key) — runs
// against a DataAggregator and against a key-sorted slice of (rid, key,
// ts, attrs) with the multi-update rule and the renewal order spelled
// out. Every message goes to a QueryServer. After every step Len,
// OldestCertTS, the owner's records, its period marks, and the server's
// records are compared with the slice, a whole-domain answer must pass
// Verifier.VerifyScan, and every version replaced or deleted two period
// closes ago or more must be stale to that verifier. Seed 1 runs on bas,
// the rest on xortest; odd seeds run the relation in projection mode.
//
// Two more owners check that state changes only through ReplayMsg. A
// replay twin, a DataAggregator that never signs, is handed every
// accepted message through ReplayMsg and must equal the live owner
// after every step. And on the short seeds every owner operation first
// runs with its k-th signing call failing, for k = 1 up to the calls it
// makes: each failure must return an error and leave the owner as the
// slice (and the twin) hold it, and the close that follows a failed one
// must be gapless to the verifier.
const (
	ownerOracleSeeds      = 20
	ownerOracleShortSeeds = 4
	ownerOracleSteps      = 200
	ownerOracleKeys       = 600 // keys are drawn from [0, ownerOracleKeys)
)

// ownerOracleConfig renews after 1.5 s, so a 200-step schedule (each
// step 1–50 ms) ages records past ρ'.
var ownerOracleConfig = Config{Rho: 100, RhoPrime: 1_500}

type ownerOracle struct {
	t      *testing.T
	rng    *rand.Rand
	scheme sigagg.Scheme
	priv   sigagg.PrivateKey
	opts   []DAOption

	da        *DataAggregator
	twin      *DataAggregator // every accepted message, through ReplayMsg
	signer    *failingScheme  // the live owner's scheme: fails at an armed call
	inject    bool            // run each operation with every signing call failing first
	injected  int             // signing failures injected and refused
	stepNo    int
	qs        *QueryServer
	v         *Verifier
	restoreAt int

	recs    []Record       // the obvious way: key-ascending, attrs in full
	maxRID  uint64         // highest rid ever admitted
	freed   []uint64       // rids deleted and not reused
	touched map[uint64]int // rid -> certifications and deletes this period
	ghosts  []ghost        // every version replaced or deleted
	closes  int            // periods closed
	now     int64
}

// A ghost is a version a later one replaced, or a deleted record's last
// version, and the number of periods closed when that happened.
type ghost struct {
	rec    Record
	closes int
}

func newOwnerOracle(t *testing.T, seed int64) *ownerOracle {
	var raw sigagg.Scheme = xortest.New()
	if seed == 1 {
		raw = bas.New(0)
	}
	rng := rand.New(rand.NewSource(seed))
	priv, pub, err := raw.KeyGen(rng)
	if err != nil {
		t.Fatal(err)
	}
	scheme, err := sigagg.Bind(raw, pub)
	if err != nil {
		t.Fatal(err)
	}
	o := &ownerOracle{
		t: t, rng: rng, scheme: scheme, priv: priv,
		qs:        NewQueryServer(scheme),
		v:         NewVerifier(scheme, pub, ownerOracleConfig),
		restoreAt: ownerOracleSteps/3 + rng.Intn(ownerOracleSteps/3),
		touched:   map[uint64]int{},
		now:       100,
	}
	if seed%2 == 1 {
		o.opts = append(o.opts, WithAttrSigning())
	}
	o.signer = &failingScheme{Scheme: scheme}
	o.inject = seed <= ownerOracleShortSeeds
	if o.da, err = NewDataAggregator(o.signer, priv, ownerOracleConfig, o.opts...); err != nil {
		t.Fatal(err)
	}
	if o.twin, err = NewDataAggregator(scheme, priv, ownerOracleConfig, o.opts...); err != nil {
		t.Fatal(err)
	}
	// A shuffled load into the empty relation.
	o.load(o.batch(20+rng.Intn(40), false))
	return o
}

func (o *ownerOracle) attrs(key int64) [][]byte {
	return [][]byte{[]byte(fmt.Sprintf("k%d@%d", key, o.now)), []byte(fmt.Sprint(o.rng.Intn(100)))}
}

// at is the index of key's record in the slice, or where it would go.
func (o *ownerOracle) at(key int64) (int, bool) {
	return slices.BinarySearchFunc(o.recs, key, func(r Record, k int64) int { return cmp.Compare(r.Key, k) })
}

func (o *ownerOracle) byRID(rid uint64) *Record {
	for i := range o.recs {
		if o.recs[i].RID == rid {
			return &o.recs[i]
		}
	}
	return nil
}

func (o *ownerOracle) pick() *Record { return &o.recs[o.rng.Intn(len(o.recs))] }

// freeKey is a key neither stored nor in batch.
func (o *ownerOracle) freeKey(batch []*Record) int64 {
	for {
		k := o.rng.Int63n(ownerOracleKeys)
		if _, taken := o.at(k); !taken && !slices.ContainsFunc(batch, func(r *Record) bool { return r.Key == k }) {
			return k
		}
	}
}

// freeRID is a rid no stored record holds: one deleted earlier, or one
// past every rid admitted so far.
func (o *ownerOracle) freeRID(batch []*Record) uint64 {
	for {
		rid := o.maxRID + 1 + uint64(o.rng.Intn(5))
		if len(o.freed) > 0 && o.rng.Intn(2) == 0 {
			rid = o.freed[o.rng.Intn(len(o.freed))]
		}
		if !slices.ContainsFunc(batch, func(r *Record) bool { return r.RID == rid }) {
			return rid
		}
	}
}

// batch is n new records on free keys, in no particular order; with
// rids, a third of them carry their own.
func (o *ownerOracle) batch(n int, rids bool) []*Record {
	var recs []*Record
	for ; n > 0; n-- {
		rec := &Record{Key: o.freeKey(recs)}
		rec.Attrs = o.attrs(rec.Key)
		if rids && o.rng.Intn(3) == 0 {
			rec.RID = o.freeRID(recs)
		}
		recs = append(recs, rec)
	}
	return recs
}

// errInjected is the failingScheme's signing failure.
var errInjected = errors.New("injected signing failure")

// failingScheme signs through the scheme it wraps, except that the
// failAt-th SignBatch call since it was armed fails.
type failingScheme struct {
	sigagg.Scheme
	failAt, calls atomic.Int64 // failAt 0: disarmed
	fired         atomic.Bool
}

func (s *failingScheme) SignBatch(priv sigagg.PrivateKey, digests [][]byte) ([]sigagg.Signature, error) {
	if n := s.calls.Add(1); n == s.failAt.Load() {
		s.fired.Store(true)
		return nil, errInjected
	}
	return s.Scheme.SignBatch(priv, digests)
}

// arm makes the k-th signing call from now on fail; k = 0 disarms.
func (s *failingScheme) arm(k int64) {
	s.calls.Store(0)
	s.fired.Store(false)
	s.failAt.Store(k)
}

// run makes one owner operation. With injection on, the operation first
// runs with its k-th signing call failing, for k = 1, 2, … while the
// failure fires: each such run must return the injected error and change
// nothing, which check and the twin hold. The first run the failure does
// not reach is the operation itself, and its outcome is returned.
func (o *ownerOracle) run(op func() (*UpdateMsg, error)) (*UpdateMsg, error) {
	o.t.Helper()
	if !o.inject {
		return op()
	}
	defer o.signer.arm(0)
	for k := int64(1); ; k++ {
		o.signer.arm(k)
		msg, err := op()
		if !o.signer.fired.Load() {
			return msg, err
		}
		if !errors.Is(err, errInjected) {
			o.t.Fatalf("step %d: signing call %d failed, and the operation returned %v", o.stepNo, k, err)
		}
		o.injected++
		o.check(o.stepNo)
	}
}

// deliver hands an accepted operation's message to the server and to the
// replay twin.
func (o *ownerOracle) deliver(msg *UpdateMsg, err error) {
	o.t.Helper()
	if err != nil {
		o.t.Fatal(err)
	}
	if err := o.qs.Apply(msg); err != nil {
		o.t.Fatalf("Apply: %v", err)
	}
	if err := o.twin.ReplayMsg(msg); err != nil {
		o.t.Fatalf("twin ReplayMsg: %v", err)
	}
}

// refuse checks that a load the slice says is invalid fails.
func (o *ownerOracle) refuse(what string, batch []*Record) {
	o.t.Helper()
	if _, err := o.da.Load(batch, o.now); err == nil {
		o.t.Fatalf("Load of %s accepted", what)
	}
}

// certify is one certification of a stored record at the current time;
// the version it replaces, if any, becomes a ghost.
func (o *ownerOracle) certify(r *Record) {
	if r.TS != 0 {
		o.ghosts = append(o.ghosts, ghost{rec: *r, closes: o.closes})
	}
	r.TS = o.now
	o.touched[r.RID]++
}

// load admits a batch the way Load documents it — explicit rids first,
// then the rest numbered in key order past every rid admitted — chains
// it in, and re-certifies every stored record it lands next to.
func (o *ownerOracle) load(batch []*Record) {
	want := make([]Record, len(batch))
	for i, r := range batch {
		want[i] = *r
		o.maxRID = max(o.maxRID, r.RID)
	}
	slices.SortFunc(want, func(a, b Record) int { return cmp.Compare(a.Key, b.Key) })
	for i := range want {
		if want[i].RID == 0 {
			o.maxRID++
			want[i].RID = o.maxRID
		}
		o.freed = slices.DeleteFunc(o.freed, func(rid uint64) bool { return rid == want[i].RID })
	}
	o.deliver(o.run(func() (*UpdateMsg, error) { return o.da.Load(batch, o.now) }))

	isNew := map[int64]bool{}
	for _, r := range want {
		i, _ := o.at(r.Key)
		o.recs = slices.Insert(o.recs, i, r)
		o.certify(&o.recs[i])
		isNew[r.Key] = true
	}
	seams := map[int64]bool{}
	for i, r := range o.recs {
		if !isNew[r.Key] {
			continue
		}
		for _, j := range []int{i - 1, i + 1} {
			if j >= 0 && j < len(o.recs) && !isNew[o.recs[j].Key] && !seams[o.recs[j].Key] {
				seams[o.recs[j].Key] = true
				o.certify(&o.recs[j])
			}
		}
	}
}

// update gives a stored record new attribute values.
func (o *ownerOracle) update(r *Record) {
	attrs := o.attrs(r.Key)
	o.deliver(o.run(func() (*UpdateMsg, error) { return o.da.Update(r.Key, attrs, o.now) }))
	r.Attrs = attrs
	o.certify(r)
}

// remove deletes the record at index i and re-certifies its former
// neighbours.
func (o *ownerOracle) remove(i int) {
	rid := o.recs[i].RID
	o.deliver(o.run(func() (*UpdateMsg, error) { return o.da.Delete(o.recs[i].Key, o.now) }))
	o.touched[rid]++
	o.ghosts = append(o.ghosts, ghost{rec: o.recs[i], closes: o.closes})
	o.freed = append(o.freed, rid)
	o.recs = slices.Delete(o.recs, i, i+1)
	if i > 0 {
		o.certify(&o.recs[i-1])
	}
	if i < len(o.recs) {
		o.certify(&o.recs[i])
	}
}

// closePeriod starts a new period, then re-certifies in it the closed
// period's multi-updated records that are still stored, and marks the
// others once.
func (o *ownerOracle) closePeriod() {
	o.deliver(o.run(func() (*UpdateMsg, error) { return o.da.ClosePeriod(o.now) }))
	o.closes++
	closed := o.touched
	o.touched = map[uint64]int{}
	for rid, n := range closed {
		if n < 2 {
			continue
		}
		if r := o.byRID(rid); r != nil {
			o.certify(r)
		} else {
			o.touched[rid] = 1
		}
	}
}

// renew re-certifies, oldest (ts, rid) first, up to budget records
// older than ρ'.
func (o *ownerOracle) renew(budget int) {
	var due []*Record
	for i := range o.recs {
		if r := &o.recs[i]; o.now-r.TS > ownerOracleConfig.RhoPrime && o.now > r.TS {
			due = append(due, r)
		}
	}
	slices.SortFunc(due, func(a, b *Record) int {
		return cmp.Or(cmp.Compare(a.TS, b.TS), cmp.Compare(a.RID, b.RID))
	})
	due = due[:min(budget, len(due))]
	var n int
	o.deliver(o.run(func() (msg *UpdateMsg, err error) {
		msg, n, err = o.da.RenewOld(o.now, budget)
		return msg, err
	}))
	if n != len(due) {
		o.t.Fatalf("RenewOld renewed %d, slice says %d", n, len(due))
	}
	for _, r := range due {
		o.certify(r)
	}
}

// restore swaps the owner for a fresh one restored from its bookkeeping
// and the server's records, as recovery assembles a snapshot. The twin
// is not restored: fed messages only, it must equal the restored owner.
func (o *ownerOracle) restore() {
	st := o.da.SnapshotMeta()
	st.Records = o.qs.Snapshot().Records
	da, err := NewDataAggregator(o.signer, o.priv, ownerOracleConfig, o.opts...)
	if err != nil {
		o.t.Fatal(err)
	}
	if err := da.Restore(st); err != nil {
		o.t.Fatalf("Restore: %v", err)
	}
	o.da = da
}

func (o *ownerOracle) step() {
	o.now += 1 + o.rng.Int63n(50)
	switch op := o.rng.Intn(30); {
	case op < 4 || len(o.recs) < 4: // a merge load, some records with their own rid
		o.load(o.batch(1+o.rng.Intn(8), true))
	case op < 9: // an insert, numbered or with its own rid
		o.load(o.batch(1, true))
	case op < 14:
		o.update(o.pick())
	case op == 14: // updated, deleted and re-admitted under its rid at one timestamp
		i := o.rng.Intn(len(o.recs))
		o.update(&o.recs[i])
		r := o.recs[i]
		o.remove(i)
		o.load([]*Record{{Key: r.Key, RID: r.RID, Attrs: o.attrs(r.Key)}})
	case op < 19:
		o.remove(o.rng.Intn(len(o.recs)))
	case op < 23:
		o.closePeriod()
	case op < 26:
		o.renew(1 + o.rng.Intn(10))
	case op == 26: // a key already stored, alone or in a batch
		batch := o.batch(o.rng.Intn(3), false)
		batch = append(batch, &Record{Key: o.pick().Key})
		o.refuse("a stored key", batch)
	case op == 27: // a rid another key holds
		batch := o.batch(1+o.rng.Intn(3), false)
		batch[o.rng.Intn(len(batch))].RID = o.pick().RID
		o.refuse("a held rid", batch)
	case op == 28: // one new rid given twice
		batch := o.batch(2+o.rng.Intn(3), false)
		rid := o.freeRID(nil)
		batch[0].RID, batch[len(batch)-1].RID = rid, rid
		o.refuse("a repeated rid", batch)
	default: // an unknown key
		k := o.freeKey(nil)
		if _, err := o.da.Update(k, nil, o.now); !errors.Is(err, ErrUnknownKey) {
			o.t.Fatalf("Update of unknown key %d: %v", k, err)
		}
		if _, err := o.da.Delete(k, o.now); !errors.Is(err, ErrUnknownKey) {
			o.t.Fatalf("Delete of unknown key %d: %v", k, err)
		}
	}
}

func (o *ownerOracle) check(step int) {
	t := o.t
	if got, want := o.da.Len(), len(o.recs); got != want {
		t.Fatalf("step %d: Len = %d, slice holds %d", step, got, want)
	}
	oldest := int64(-1)
	for _, r := range o.recs {
		if oldest == -1 || r.TS < oldest {
			oldest = r.TS
		}
	}
	if got := o.da.OldestCertTS(); got != oldest {
		t.Fatalf("step %d: OldestCertTS = %d, slice says %d", step, got, oldest)
	}
	touched := map[int]int{}
	for rid, n := range o.touched {
		touched[slot(rid)] = n
	}
	if got := o.da.pub.State().Touched; !maps.Equal(got, touched) {
		t.Fatalf("step %d: the period marks %v, slice says %v", step, got, touched)
	}
	if slotsHeld(o.da) != len(o.recs) {
		t.Fatalf("step %d: owner holds %d record bodies for %d records", step, slotsHeld(o.da), len(o.recs))
	}
	for _, r := range o.recs {
		if got := o.da.held(r.RID); got == nil || !reflect.DeepEqual(*got, r) {
			t.Fatalf("step %d: owner holds rid %d as %+v, slice says %+v", step, r.RID, got, r)
		}
	}
	served := o.qs.Snapshot().Records
	if len(served) != len(o.recs) {
		t.Fatalf("step %d: server holds %d records, slice %d", step, len(served), len(o.recs))
	}
	for i := range served {
		if got := fullRecord(&served[i]); !reflect.DeepEqual(*got, o.recs[i]) {
			t.Fatalf("step %d: server record %d = %+v, slice says %+v", step, i, got, o.recs[i])
		}
	}
	if field, live, twin := ownerDiff(o.da, o.twin); field != "" {
		t.Fatalf("step %d: the owner's %s is %+v, the replay twin's %+v", step, field, live, twin)
	}
	if len(o.recs) == 0 {
		return
	}
	ans, err := scan(o.qs, -1, ownerOracleKeys)
	if err != nil {
		t.Fatalf("step %d: Query: %v", step, err)
	}
	if _, err := verifyScan(o.v, ans, -1, ownerOracleKeys, o.now); err != nil {
		t.Fatalf("step %d: whole-domain answer: %v", step, err)
	}
	// A replacement or a delete marks its slot in its own period; one in
	// the period of the version's certification is marked again at the
	// start of the next. Either way, two closes on, the old version is
	// stale — a version a period close re-certified included: its TS
	// opens the next period, and its re-signature is its slot's first
	// mark there.
	for _, g := range o.ghosts {
		if o.closes-g.closes < 2 {
			continue
		}
		if _, err := o.v.checker.CheckFresh(slot(g.rec.RID), g.rec.TS, o.now, ownerOracleConfig.Rho); !errors.Is(err, freshness.ErrStale) {
			t.Fatalf("step %d: rid %d's version at %d, replaced or deleted %d closes ago, is not stale: %v",
				step, g.rec.RID, g.rec.TS, o.closes-g.closes, err)
		}
	}
}

func TestOwnerMatchesSortedSlice(t *testing.T) {
	seeds := ownerOracleSeeds
	if testing.Short() || raceEnabled {
		seeds = ownerOracleShortSeeds
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		// A failing seed is named by its subtest: replay it alone with
		// -run 'TestOwnerMatchesSortedSlice/seed=N'.
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			o := newOwnerOracle(t, seed)
			o.check(0)
			for step := 1; step <= ownerOracleSteps; step++ {
				if step == o.restoreAt {
					o.restore()
				}
				o.stepNo = step
				o.step()
				o.check(step)
			}
			if o.inject {
				t.Logf("%d signing failures injected, each refused with nothing changed", o.injected)
			}
		})
	}
}

// ownerDiff names the first part of a's state where b differs — the
// occupied slots, the key-order scan, the rid allocator, the latest
// mark, the publisher's period or the oldest certification — with both
// values, or returns "".
func ownerDiff(a, b *DataAggregator) (field string, av, bv any) {
	same := func(x, y *Record) bool {
		return x == y || x != nil && y != nil && x.RID == y.RID && x.Key == y.Key && x.TS == y.TS &&
			slices.EqualFunc(x.Attrs, y.Attrs, bytes.Equal)
	}
	scan := func(da *DataAggregator) (recs []*Record) {
		da.order.scan(func(rec *Record) bool {
			recs = append(recs, rec)
			return true
		})
		return recs
	}
	for rid := range max(len(a.bySlot), len(b.bySlot)) {
		if x, y := a.held(uint64(rid)), b.held(uint64(rid)); !same(x, y) {
			return fmt.Sprintf("slot %d", rid), x, y
		}
	}
	if ka, kb := scan(a), scan(b); !slices.EqualFunc(ka, kb, same) {
		return "key order", ka, kb
	}
	if a.nextRID != b.nextRID {
		return "nextRID", a.nextRID, b.nextRID
	}
	if a.lastMark != b.lastMark {
		return "lastMark", a.lastMark, b.lastMark
	}
	if pa, pb := a.pub.State(), b.pub.State(); !reflect.DeepEqual(pa, pb) {
		return "publisher state", pa, pb
	}
	if oa, ob := a.OldestCertTS(), b.OldestCertTS(); oa != ob {
		return "OldestCertTS", oa, ob
	}
	return "", nil, nil
}
