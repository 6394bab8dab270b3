package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"authdb/internal/core"
	"authdb/internal/query"
	"authdb/internal/server"
	"authdb/internal/sigagg"
	"authdb/internal/sigagg/bas"
	"authdb/internal/wal"
	"authdb/internal/workload"
)

// The stack is booted the way cmd/authserve boots it.
const (
	shards      = 64
	cacheBytes  = 64 << 20
	groupCommit = 2 * time.Millisecond
)

// rel is one served relation: its owner, its server and its durable
// store. Range workloads have one; plan_join has outer "o" and inner "i".
type rel struct {
	name   string
	da     *core.DataAggregator
	qs     *core.QueryServer
	pub    sigagg.PublicKey
	scheme sigagg.Scheme // bound to this relation's signer
	store  *wal.Store
}

// stack is the system under test: relations, planner (plan workloads)
// and the loopback listener.
type stack struct {
	w    *workloadDef
	seed int64
	dir  string
	rels []*rel
	eng  *query.Engine // nil for range workloads

	srv      *server.NetServer
	serveErr chan error
	addr     string

	loadTime  time.Duration // DataAggregator.Load, all relations
	snapTime  time.Duration // Capture + WriteSnapshot, all relations
	snapBytes int64
	ts        int64 // logical clock; the writer owns it while it runs
}

// keyRand derives a relation's deterministic key-generation entropy from
// the run seed, so a recovery can re-derive the same key pair.
func keyRand(seed int64, relName string) *rand.Rand {
	h := seed
	for _, c := range relName {
		h = h*1_000_003 + int64(c)
	}
	return rand.New(rand.NewSource(h))
}

// inputs are the generated records per relation, in relation order.
func genInputs(w *workloadDef, n int, seed int64) [][]*core.Record {
	if !w.Plan {
		return [][]*core.Record{workload.Records(workload.Config{N: n, RecLen: recLen, Seed: seed})}
	}
	// Outer keys 10, 20, …, 10n with two attribute slots (projection
	// mode); the inner relation holds every joinEvery-th outer key.
	var outer, inner []*core.Record
	for i := 1; i <= n; i++ {
		k := int64(i) * 10
		outer = append(outer, &core.Record{Key: k, Attrs: [][]byte{
			[]byte(fmt.Sprintf("name-%d-%d", seed, k)), []byte(fmt.Sprintf("payload-%d-%d", seed, k)),
		}})
		if i%joinEvery == 0 {
			inner = append(inner, &core.Record{Key: k, Attrs: [][]byte{[]byte(fmt.Sprintf("i-%d-%d", seed, k))}})
		}
	}
	return [][]*core.Record{outer, inner}
}

// newRels keys empty owner/server pairs for the workload under a fresh
// scheme instance (fresh verification caches, as a new process has).
func newRels(w *workloadDef, seed int64) ([]*rel, error) {
	raw := bas.New(0)
	if !w.Plan {
		sys, err := core.NewSystemWithRand(raw, core.DefaultConfig(), keyRand(seed, "r"), core.WithShards(shards))
		if err != nil {
			return nil, err
		}
		return []*rel{{name: "r", da: sys.DA, qs: sys.QS, pub: sys.Pub, scheme: sys.Scheme}}, nil
	}
	cat, err := core.NewCatalog(raw, core.DefaultConfig(), 0)
	if err != nil {
		return nil, err
	}
	var rels []*rel
	for _, name := range []string{"o", "i"} {
		var daOpts []core.DAOption
		if name == "o" {
			daOpts = append(daOpts, core.WithAttrSigning())
		}
		r, err := cat.AddRelation(name, keyRand(seed, name), daOpts, []core.Option{core.WithShards(shards)})
		if err != nil {
			return nil, err
		}
		rels = append(rels, &rel{name: name, da: r.DA, qs: r.QS, pub: r.Pub, scheme: r.Scheme})
	}
	return rels, nil
}

func storeDir(dir, relName string) string { return filepath.Join(dir, "wal-"+relName) }

func openStore(dir, relName string) (*wal.Store, error) {
	return wal.Open(storeDir(dir, relName), wal.Options{GroupCommit: groupCommit})
}

// boot is the timed set-up: load + sign the records, deliver them, write
// the first snapshot, bring the listener up. Generating the inputs is
// the benchmark's own work and happens before the clock starts.
func boot(w *workloadDef, seed int64, dir string, inputs [][]*core.Record) (s *stack, err error) {
	s = &stack{w: w, seed: seed, dir: dir, ts: 2}
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	if s.rels, err = newRels(w, seed); err != nil {
		return s, err
	}
	for i, r := range s.rels {
		if r.store, err = openStore(dir, r.name); err != nil {
			return s, err
		}
		t0 := time.Now()
		msg, err := r.da.Load(inputs[i], 1)
		if err != nil {
			return s, fmt.Errorf("load %q: %w", r.name, err)
		}
		s.loadTime += time.Since(t0)
		if err := r.qs.Apply(msg); err != nil {
			return s, err
		}
		if w.Plan {
			if msg, err = r.da.ClosePeriod(2); err != nil {
				return s, err
			}
			if err := r.qs.Apply(msg); err != nil {
				return s, err
			}
		}
		// The bulk load becomes the initial snapshot, not one giant log record.
		t0 = time.Now()
		snap, err := wal.Capture(r.da, r.qs, r.store.LastLSN(), s.ts)
		if err != nil {
			return s, err
		}
		if err := r.store.WriteSnapshot(snap); err != nil {
			return s, err
		}
		s.snapTime += time.Since(t0)
		if fi, err := os.Stat(filepath.Join(storeDir(dir, r.name), "snapshot")); err == nil {
			s.snapBytes += fi.Size()
		}
	}
	if w.Plan {
		s.eng = query.NewEngine(query.WithCacheBytes(cacheBytes))
		for _, r := range s.rels {
			if err := s.eng.AddRelation(r.name, r.qs); err != nil {
				return s, err
			}
		}
		if err := s.certifyFilter(s.ts); err != nil {
			return s, err
		}
	}
	if err := server.EnableCache(s.rels[0].qs, cacheBytes); err != nil {
		return s, err
	}
	return s, s.listen()
}

// certifyFilter re-certifies the inner relation's partitioned Bloom
// filter at ts, as the owner does after every period close.
func (s *stack) certifyFilter(ts int64) error {
	inner := s.rels[1]
	fc, err := inner.da.CertifyFilter(64, filterBits, ts)
	if err != nil {
		return fmt.Errorf("certify filter: %w", err)
	}
	return s.eng.SetFilter(inner.name, fc)
}

// listen serves rels[0] (and the planner, if any) on a loopback port
// with authserve's default limits.
func (s *stack) listen() error {
	s.srv = server.NewNetServer(s.rels[0].qs, server.NetConfig{
		MaxConns:     1024,
		MaxFrame:     1 << 20,
		IdleTimeout:  300 * time.Second,
		ReadTimeout:  30 * time.Second,
		WriteTimeout: 30 * time.Second,
	})
	if s.eng != nil {
		s.srv.EnablePlans(s.eng)
	}
	ln, err := s.srv.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	s.addr = ln.Addr().String()
	s.serveErr = make(chan error, 1)
	go func() { s.serveErr <- s.srv.Serve(ln) }()
	return nil
}

// stopServing drains the listener and waits for Serve to return.
func (s *stack) stopServing() {
	if s.srv == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s.srv.Shutdown(ctx)
	<-s.serveErr
	s.srv = nil
}

// close stops serving and closes the stores; the data directory stays.
func (s *stack) close() {
	s.stopServing()
	for _, r := range s.rels {
		r.qs.DisableAnswerCache()
		if r.store != nil {
			r.store.Close()
			r.store = nil
		}
	}
}

// durableLSNs reports each relation's fsynced log position.
func (s *stack) durableLSNs() []uint64 {
	out := make([]uint64, len(s.rels))
	for i, r := range s.rels {
		out[i] = r.store.Log().DurableLSN()
	}
	return out
}

// logBytes is the size of the write-ahead log segments on disk.
func (s *stack) logBytes() int64 {
	var total int64
	for _, r := range s.rels {
		segs, _ := filepath.Glob(filepath.Join(storeDir(s.dir, r.name), "wal-*.log"))
		for _, p := range segs {
			if fi, err := os.Stat(p); err == nil {
				total += fi.Size()
			}
		}
	}
	return total
}

// recoverStack is the timed restart: open the stores a stopped stack
// left in dir and recover fresh owner/server pairs from snapshot + log,
// with no signing and no owner round trip.
func recoverStack(w *workloadDef, seed int64, dir string) (*stack, time.Duration, int, error) {
	s := &stack{w: w, seed: seed, dir: dir}
	var err error
	if s.rels, err = newRels(w, seed); err != nil {
		return nil, 0, 0, err
	}
	replayed := 0
	t0 := time.Now()
	for _, r := range s.rels {
		if r.store, err = openStore(dir, r.name); err != nil {
			s.close()
			return nil, 0, 0, err
		}
		st, err := r.store.Recover(r.da, r.qs)
		if err != nil {
			s.close()
			return nil, 0, 0, fmt.Errorf("recover %q: %w", r.name, err)
		}
		replayed += st.Replayed
	}
	took := time.Since(t0)
	if w.Plan {
		s.eng = query.NewEngine(query.WithCacheBytes(cacheBytes))
		for _, r := range s.rels {
			if err := s.eng.AddRelation(r.name, r.qs); err != nil {
				s.close()
				return nil, 0, 0, err
			}
		}
	}
	return s, took, replayed, nil
}
