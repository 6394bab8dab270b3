package wire

// Frame kinds: the byte after the version in every message. Senders and
// dispatchers name them; the values are the protocol and never change.
const (
	KindPlan          byte = 'P'
	KindComposite     byte = 'C'
	KindSummaries     byte = 'F'
	KindError         byte = 'E'
	KindUpdate        byte = 'U'
	KindRelSummaries  byte = 'T'
	KindReplSubscribe byte = 'R'
	KindReplBootstrap byte = 'B'
	KindReplRecord    byte = 'W'
	KindReplHeartbeat byte = 'H'
)

// KindInfo describes one frame kind for documentation and the table
// test.
type KindInfo struct {
	Kind    byte
	From    string // sending party
	To      string // receiving party
	Meaning string
}

// Kinds is the whole protocol surface, one row per frame kind.
var Kinds = []KindInfo{
	{KindPlan, "client", "server", "query plan over named relations (a bare selection is a range query), with the session's summary cursor per relation"},
	{KindComposite, "server", "client", "plan answer: chained scan, optional projection and join sections, per-relation summary tails"},
	{KindRelSummaries, "client", "server", "certified summaries of one named relation, after a sequence number or since a timestamp"},
	{KindSummaries, "server", "client", "batch of certified summaries (answers T)"},
	{KindError, "server", "client", "coded error: generic, bad frame, or overloaded"},
	{KindUpdate, "owner", "server", "dissemination message: records, deletions, a period's summary, a re-certified Bloom filter (also the WAL and replication record body)"},
	{KindReplSubscribe, "follower", "primary", "subscribe to one named relation's feed after a known LSN"},
	{KindReplBootstrap, "primary", "follower", "one relation's image at an LSN: records, summaries, certified filter"},
	{KindReplRecord, "primary", "follower", "one dissemination message with its LSN"},
	{KindReplHeartbeat, "primary", "follower", "idle beat carrying the primary's LSN"},
}
