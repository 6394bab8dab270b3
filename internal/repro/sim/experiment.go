package sim

import (
	"math/rand"
)

// SchemeCosts parameterizes one authentication scheme for the workload
// experiments. Times are seconds; sizes are bytes. The functions take
// the query cardinality so the model covers point (Fig. 7) and range
// (Fig. 9) transactions with one definition.
type SchemeCosts struct {
	Name string

	// QueryCPU is the server CPU time to search the index and build the
	// proof for a query of the given cardinality.
	QueryCPU func(card int) float64
	// QueryIO is the disk time for the same query.
	QueryIO func(card int) float64
	// UpdateCPU is the server CPU time to apply one record update to the
	// index and authentication structure.
	UpdateCPU float64
	// UpdateIO is the disk time for one update.
	UpdateIO float64
	// SignDelay is the data-aggregator-side signing latency added to
	// every update before it reaches the server (pipelined, so it adds
	// latency but no server load).
	SignDelay float64
	// AnswerBytes is the size of the answer plus VO shipped to the user.
	AnswerBytes func(card int) int
	// UpdateBytes is the size of a record-update message from the DA.
	UpdateBytes int
	// VerifyCPU is the user-side verification time.
	VerifyCPU func(card int) float64
	// RootLock: updates take a single global lock exclusively and
	// queries take it shared (the MHT bottleneck). Otherwise locks are
	// striped per record.
	RootLock bool
}

// WorkloadConfig drives one simulated run (one point of Figs. 7/9/10).
type WorkloadConfig struct {
	ArrivalRate float64 // transactions per second (Poisson)
	UpdFrac     float64 // fraction of arrivals that are updates (Upd%)
	Cardinality func(rng *rand.Rand) int
	Duration    float64 // seconds of arrivals
	Cores       int     // QS CPU cores (4 in §5.1)
	Disks       int     // QS disks (2 in §5.1)
	LANbps      float64 // server-user bandwidth (14.4 Mbps)
	WANbps      float64 // DA-server bandwidth (622 Mbps)
	LockStripes int     // record-lock stripes for non-root-lock schemes
	Seed        int64
}

// DefaultWorkloadConfig returns the Table 2 system parameters.
func DefaultWorkloadConfig() WorkloadConfig {
	return WorkloadConfig{
		ArrivalRate: 50,
		UpdFrac:     0.10,
		Cardinality: func(*rand.Rand) int { return 1 },
		Duration:    60,
		Cores:       4,
		Disks:       2,
		LANbps:      14.4e6,
		WANbps:      622e6,
		LockStripes: 4096,
		Seed:        1,
	}
}

// Result carries the per-class outcomes of a run.
type Result struct {
	Query  Stats
	Update Stats
}

// RunWorkload simulates the mixed query/update workload under 2PL and
// returns response-time statistics per transaction class.
func RunWorkload(cfg WorkloadConfig, costs SchemeCosts) Result {
	eng := NewEngine()
	cpu := NewServer(eng, cfg.Cores)
	disk := NewServer(eng, cfg.Disks)
	// The LAN is each user's dedicated last-mile link (HSDPA in §5.1):
	// transmission is pure latency per answer, not a shared queue. The
	// DA-to-server WAN is a genuinely shared pipe.
	lanDelay := func(bytes int) float64 { return float64(bytes) * 8 / cfg.LANbps }
	wan := NewLink(eng, cfg.WANbps)
	root := NewRWLock(eng)
	stripes := NewLockTable(eng, cfg.LockStripes)
	rng := rand.New(rand.NewSource(cfg.Seed))

	var res Result

	lockFor := func(isUpdate bool, rid uint64) (*RWLock, bool) {
		if costs.RootLock {
			return root, isUpdate // updates exclusive, queries shared
		}
		return stripes.Lock(rid), isUpdate
	}

	runQuery := func(arrive float64) {
		card := cfg.Cardinality(rng)
		rid := uint64(rng.Int63())
		lock, excl := lockFor(false, rid)
		lock.Acquire(excl, func(lockWait float64) {
			serveStart := eng.Now()
			cpu.Use(costs.QueryCPU(card), func(float64) {
				disk.Use(costs.QueryIO(card), func(float64) {
					lock.Release(excl)
					serveDone := eng.Now()
					net := lanDelay(costs.AnswerBytes(card))
					verify := costs.VerifyCPU(card)
					eng.After(net+verify, func() {
						res.Query.Record(eng.Now()-arrive,
							lockWait,
							serveDone-serveStart,
							net,
							verify)
					})
				})
			})
		})
	}

	runUpdate := func(arrive float64) {
		rid := uint64(rng.Int63())
		// DA signs, then ships the record over the WAN.
		eng.After(costs.SignDelay, func() {
			wan.Send(costs.UpdateBytes, func(float64) {
				netDone := eng.Now()
				lock, excl := lockFor(true, rid)
				lock.Acquire(excl, func(lockWait float64) {
					serveStart := eng.Now()
					cpu.Use(costs.UpdateCPU, func(float64) {
						disk.Use(costs.UpdateIO, func(float64) {
							lock.Release(excl)
							res.Update.Record(eng.Now()-arrive,
								lockWait,
								eng.Now()-serveStart,
								netDone-arrive-costs.SignDelay,
								0)
						})
					})
				})
			})
		})
	}

	// Poisson arrivals.
	for t := 0.0; t <= cfg.Duration; t += rng.ExpFloat64() / cfg.ArrivalRate {
		at := t
		if rng.Float64() < cfg.UpdFrac {
			eng.At(at, func() { runUpdate(at) })
		} else {
			eng.At(at, func() { runQuery(at) })
		}
	}

	// Drain: allow plenty of time for queued work to finish.
	eng.Run(cfg.Duration * 20)
	return res
}
