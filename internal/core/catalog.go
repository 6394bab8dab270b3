package core

import (
	"fmt"
	"io"

	"authdb/internal/sigagg"
)

// Catalog is a set of named relations run by one data owner: each
// relation keeps its own signing key (cryptographic domain separation —
// a signature from one relation can never authenticate a record, summary
// or filter of another), its own certified-summary stream and epoch
// space, and its own DA/QS/Verifier trio, while all owners sign through
// one shared worker pool (the pool takes the private key per call, so
// distinct keys share it safely; see sigagg.Pool).
//
// One relation is a catalog with one member, conventionally named
// DefaultRelation.
type Catalog struct {
	scheme sigagg.Scheme
	cfg    Config
	pool   *sigagg.Pool
	byName map[string]*Relation
	names  []string // insertion order
}

// Relation is one named member of a Catalog. Scheme is bound to this
// relation's signer (aggregation needs the signer's parameters under
// condensed RSA); Pub is the relation's public key, which clients need
// per relation to verify composite answers.
type Relation struct {
	Name     string
	DA       *DataAggregator
	QS       *QueryServer
	Verifier *Verifier
	Scheme   sigagg.Scheme
	Pub      sigagg.PublicKey
}

// Deliver applies one dissemination message from this relation's owner
// to its query server.
func (r *Relation) Deliver(msg *UpdateMsg) error {
	if msg == nil {
		return nil
	}
	return r.QS.Apply(msg)
}

// NewCatalog creates an empty catalog over the (unbound) scheme. The
// shared signing pool uses the scheme's batch primitives with the
// default worker fan-out; workers caps it (values below 1 keep the
// default).
func NewCatalog(scheme sigagg.Scheme, cfg Config, workers int) (*Catalog, error) {
	if cfg.Rho <= 0 {
		return nil, fmt.Errorf("core: non-positive ρ")
	}
	return &Catalog{
		scheme: scheme,
		cfg:    cfg,
		pool:   sigagg.NewPool(scheme, workers),
		byName: make(map[string]*Relation),
	}, nil
}

// AddRelation keys and wires a new named relation. rnd supplies
// key-generation entropy (nil = crypto/rand; a deterministic reader
// gives reproducible keys: how the demo serving binary and its remote
// clients agree on the owner's public key without a key exchange;
// production deployments distribute the key out of band). daOpts and qsOpts
// configure the relation's owner and server; the shared signing pool is
// installed first, so a caller's WithSigningPool can
// still override it per relation.
func (c *Catalog) AddRelation(name string, rnd io.Reader, daOpts []DAOption, qsOpts []Option) (*Relation, error) {
	if name == "" {
		return nil, fmt.Errorf("core: empty relation name")
	}
	if _, dup := c.byName[name]; dup {
		return nil, fmt.Errorf("core: relation %q already in catalog", name)
	}
	priv, pub, err := c.scheme.KeyGen(rnd)
	if err != nil {
		return nil, fmt.Errorf("core: keygen for relation %q: %w", name, err)
	}
	bound, err := sigagg.Bind(c.scheme, pub)
	if err != nil {
		return nil, err
	}
	da, err := NewDataAggregator(bound, priv, c.cfg,
		append([]DAOption{WithSigningPool(c.pool)}, daOpts...)...)
	if err != nil {
		return nil, err
	}
	rel := &Relation{
		Name:     name,
		DA:       da,
		QS:       NewQueryServer(bound, qsOpts...),
		Verifier: NewVerifier(bound, pub, c.cfg),
		Scheme:   bound,
		Pub:      pub,
	}
	c.byName[name] = rel
	c.names = append(c.names, name)
	return rel, nil
}

// Relation returns the named relation, or nil when absent.
func (c *Catalog) Relation(name string) *Relation { return c.byName[name] }

// Relations lists the relation names in insertion order.
func (c *Catalog) Relations() []string {
	return append([]string(nil), c.names...)
}
