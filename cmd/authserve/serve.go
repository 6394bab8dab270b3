package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"authdb/internal/core"
	"authdb/internal/replica"
	"authdb/internal/server"
	"authdb/internal/wal"
)

// catalogServer is a booted primary: a node whose every relation is fed
// by a relation runtime, which a replication hub publishes in turn.
type catalogServer struct {
	*node
	rts  []*wal.Runtime    // in -catalog order
	srcs []*replica.Source // rts[i]'s feed

	// writer state
	clock   int64 // the last owner timestamp issued (see stamp)
	updates int64
	nextIns int // next outer key index to drip into the last inner relation
}

// stamp issues the next owner timestamp: Unix milliseconds, held
// strictly above every timestamp issued before — this run's and, through
// the recovered relations' TS, every earlier run's.
func (s *catalogServer) stamp() int64 {
	s.clock = max(s.clock+1, time.Now().UnixMilli())
	return s.clock
}

// synthRecords builds relation idx of the synthetic catalog: the outer
// relation (0) holds keys 10, 20, …, 10n with two attribute slots; every
// inner relation holds every joinEvery-th outer key with one slot — so
// joins match a fixed, known fraction and the rest need non-match
// proofs.
func synthRecords(name string, idx, n, joinEvery int) []*core.Record {
	var recs []*core.Record
	for i := 1; i <= n; i++ {
		k := int64(i) * 10
		if idx == 0 {
			recs = append(recs, &core.Record{Key: k, Attrs: [][]byte{
				[]byte(fmt.Sprintf("name-%d", k)), []byte(fmt.Sprintf("payload-%d", k)),
			}})
		} else if i%joinEvery == 0 {
			recs = append(recs, &core.Record{Key: k, Attrs: [][]byte{[]byte(fmt.Sprintf("%s-%d", name, k))}})
		}
	}
	return recs
}

// bootPrimary brings the catalog up: every relation recovers from its
// store — records, summaries and certified filter, nothing re-signed — or
// loads and signs its synthetic records, and the listener serves every
// relation's feed beside the plans. A recovered relation closes a period
// at boot, so the time it was down does not read as a frozen stream.
func bootPrimary(f *flags) (s *catalogServer, err error) {
	s = &catalogServer{nextIns: 1}
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	cat, err := core.NewCatalog(f.scheme, core.DefaultConfig(), 0)
	if err != nil {
		return s, err
	}
	s.node, err = boot(f, func(i int, name string) (*core.QueryServer, error) {
		var daOpts []core.DAOption
		if i == 0 {
			// The outer relation signs attribute-stripped records plus
			// per-attribute signatures, so projections verify (§3.4).
			daOpts = append(daOpts, core.WithAttrSigning())
		}
		rel, err := cat.AddRelation(name, relKeyRand(f.keyseed, f.scheme.Name(), name), daOpts, []core.Option{core.WithShards(f.shards)})
		if err != nil {
			return nil, err
		}
		var store *wal.Store
		if f.dataDir != "" {
			if store, err = wal.Open(filepath.Join(f.dataDir, name), f.wal); err != nil {
				return nil, fmt.Errorf("open durable state for %q: %w", name, err)
			}
		}
		rt := wal.NewRuntime(rel.DA, rel.QS, store, f.snapEvery)
		s.rts = append(s.rts, rt)
		st, recovered, err := rt.Recover()
		if err != nil {
			return nil, fmt.Errorf("recover %q: %w", name, err)
		}
		if recovered {
			// Restart: snapshot + log tail, no owner round trip, no
			// signing but the boot close.
			fmt.Printf("authserve: relation %q: recovered %d records, %d summaries (snapshot lsn %d, %d replayed, %d overlap-skipped)\n",
				name, rel.QS.Len(), len(rel.QS.SummariesTail(0, 0)), st.SnapshotLSN, st.Replayed, st.Skipped)
			s.clock = max(s.clock, rt.TS())
			if err := closePeriod(rt, i > 0, f.filterBits, s.stamp()); err != nil {
				return nil, fmt.Errorf("close a period of %q at boot: %w", name, err)
			}
		} else {
			fmt.Printf("authserve: relation %q: loading under %s (keyseed %q)...\n", name, rel.Scheme.Name(), f.keyseed)
			load, err := rel.DA.Load(synthRecords(name, i, f.n, f.joinEvery), s.stamp())
			if err != nil {
				return nil, fmt.Errorf("load %q: %w", name, err)
			}
			closed, err := rel.DA.ClosePeriod(s.stamp())
			if err != nil {
				return nil, err
			}
			if err := rt.Load(load, closed); err != nil {
				return nil, err
			}
			if i > 0 {
				if err := certifyFilter(rt, f.filterBits, closed.TS); err != nil {
					return nil, fmt.Errorf("certify filter for %q: %w", name, err)
				}
			}
		}
		if rel.QS.Len() == 0 {
			return nil, fmt.Errorf("relation %q is empty", name)
		}
		return rel.QS, nil
	})
	if err != nil {
		return s, err
	}
	for i, rt := range s.rts {
		// Followers subscribe over the same listener; with a durable store
		// they can catch up from the WAL tail, otherwise every
		// (re)subscription costs a full bootstrap image.
		src := replica.NewSource(rt, replica.SourceConfig{WriteTimeout: f.net.WriteTimeout})
		s.srcs = append(s.srcs, src)
		s.srv.EnableReplication(f.names[i], src)
	}
	return s, nil
}

// ts is the owner time the catalog has reached across its relations.
func (s *catalogServer) ts() int64 {
	var ts int64
	for _, rt := range s.rts {
		ts = max(ts, rt.TS())
	}
	return ts
}

// certifyFilter has rt's owner (re)certify the relation's partitioned
// Bloom filter at ts, so BF joins have their fast negative path; the
// filter reaches the server, the log and the followers as any other
// dissemination message does.
func certifyFilter(rt *wal.Runtime, bitsPerKey float64, ts int64) error {
	fc, err := rt.DA.CertifyFilter(64, bitsPerKey, ts)
	if err != nil {
		return err
	}
	return rt.Deliver(&core.UpdateMsg{TS: ts, Filter: fc})
}

// closePeriod closes a ρ-period of rt's relation at ts and, for a join
// inner, re-certifies its filter at the close: a filter older than the
// newest summary by more than ρ proves no negative.
func closePeriod(rt *wal.Runtime, inner bool, bitsPerKey float64, ts int64) error {
	msg, err := rt.DA.ClosePeriod(ts)
	if err != nil {
		return err
	}
	if err := rt.Deliver(msg); err != nil {
		return err
	}
	if !inner {
		return nil
	}
	return certifyFilter(rt, bitsPerKey, ts)
}

// beat is one tick of the background writer: update one outer record;
// every -summary-every updates, drip one new key into the last inner
// relation (so join results change and cached composites invalidate),
// close a ρ-period on every relation and re-certify the inner filters at
// the close. Every message reaches its server through its relation's
// runtime, stamped by the owner clock.
func (s *catalogServer) beat() error {
	outer, n := s.rts[0], s.rts[0].QS.Len()
	key := (s.updates%int64(n) + 1) * 10
	ts := s.stamp()
	msg, err := outer.DA.Update(key, [][]byte{
		[]byte(fmt.Sprintf("name-%d-u%d", key, ts)), []byte(fmt.Sprintf("payload-%d-u%d", key, ts)),
	}, ts)
	if err != nil {
		return err
	}
	if err := outer.Deliver(msg); err != nil {
		return err
	}
	s.updates++
	if s.f.sumEvery <= 0 || s.updates%int64(s.f.sumEvery) != 0 {
		return nil
	}
	if last := len(s.rts) - 1; last > 0 {
		inner := s.rts[last]
		for dripped := false; !dripped && s.nextIns <= n; s.nextIns++ {
			if s.nextIns%s.f.joinEvery == 0 {
				continue // already an inner key
			}
			k := int64(s.nextIns) * 10
			msg, err := inner.DA.Insert(&core.Record{
				Key: k, Attrs: [][]byte{[]byte(fmt.Sprintf("%s-late-%d", s.f.names[last], k))},
			}, ts)
			if err != nil {
				continue // dripped before a restart
			}
			if err := inner.Deliver(msg); err != nil {
				return err
			}
			dripped = true
		}
	}
	ts = s.stamp()
	for i, rt := range s.rts {
		if err := closePeriod(rt, i > 0, s.f.filterBits, ts); err != nil {
			return fmt.Errorf("close a period of %q: %w", s.f.names[i], err)
		}
	}
	return nil
}

// metricFns adds every relation's WAL positions and feed counters to the
// node's.
func (s *catalogServer) metricFns() []server.MetricFn {
	role := []server.MetricFn{sourceMetrics(s.f.names, s.srcs)}
	if s.f.dataDir != "" {
		logs := make(map[string]*wal.Log, len(s.rts))
		for i, rt := range s.rts {
			logs[s.f.names[i]] = rt.Log()
		}
		role = append(role, server.WalMetrics(logs))
	}
	return s.node.metricFns(role...)
}

// close releases the runtimes (waiting out a background snapshot) and
// their stores.
func (s *catalogServer) close() {
	for _, rt := range s.rts {
		if err := rt.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "authserve: close: %v\n", err)
		}
	}
}

func runServe(args []string) error {
	f, err := parseFlags("serve", args)
	if err != nil {
		return err
	}
	s, err := bootPrimary(f)
	if err != nil {
		return err
	}
	defer s.close()
	fmt.Printf("authserve: listening on %s with catalog %v (outer %q: %d records, %d shards); every relation feeds `authserve follow -primary %s -catalog %s`\n",
		s.srv.Addr(), f.names, f.names[0], s.rts[0].QS.Len(), s.rts[0].QS.Shards(), s.srv.Addr(), strings.Join(f.names, ","))

	// Background writer: the trusted aggregator keeps updating records
	// and closing ρ-periods, so remote clients see a live freshness
	// stream. Timestamps are Unix milliseconds (stamp).
	stopWriter := make(chan struct{})
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		if f.updEveryMS <= 0 {
			return
		}
		tick := time.NewTicker(time.Duration(f.updEveryMS * float64(time.Millisecond)))
		defer tick.Stop()
		for {
			select {
			case <-stopWriter:
				return
			case <-tick.C:
			}
			if err := s.beat(); err != nil {
				fmt.Fprintf(os.Stderr, "authserve: writer: %v\n", err)
				return
			}
		}
	}()

	return s.run("authserve", s.metricFns(), func() {
		close(stopWriter)
		<-writerDone
	}, func() {
		st, es := s.srv.Stats(), s.eng.Stats()
		fmt.Printf("authserve: served %s (%d inner scans for join runs, %d Bloom negatives), %d MiB across %d conns\n",
			requestCounts(st), es.JoinProbes, es.BFNegatives, st.BytesOut>>20, st.Conns)
	})
}
