package wire

// Frame kinds: the byte after the version in every message. Senders and
// dispatchers name them; the values are the protocol and never change.
const (
	KindQuery         byte = 'Q'
	KindSummariesReq  byte = 'S'
	KindAnswer        byte = 'A'
	KindSummaries     byte = 'F'
	KindError         byte = 'E'
	KindUpdate        byte = 'U'
	KindPlanJoin      byte = 'J'
	KindPlanSelect    byte = 'P'
	KindComposite     byte = 'C'
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
	{KindQuery, "client", "server", "range selection on relation 0, with the session's summary cursor"},
	{KindSummariesReq, "client", "server", "certified summaries of relation 0 published since a timestamp"},
	{KindAnswer, "server", "client", "chained range answer plus the session's summary delta"},
	{KindSummaries, "server", "client", "batch of certified summaries (answers S and T)"},
	{KindError, "server", "client", "coded error: generic, bad frame, or overloaded"},
	{KindUpdate, "owner", "server", "dissemination message (also the WAL and replication record body)"},
	{KindPlanJoin, "client", "server", "select-project-join plan over named relations"},
	{KindPlanSelect, "client", "server", "select-project plan over one named relation"},
	{KindComposite, "server", "client", "composite plan answer plus per-relation summary tails"},
	{KindRelSummaries, "client", "server", "certified summaries of one named relation"},
	{KindReplSubscribe, "follower", "primary", "subscribe to the feed after a known LSN"},
	{KindReplBootstrap, "primary", "follower", "full server image at an LSN"},
	{KindReplRecord, "primary", "follower", "one dissemination message with its LSN"},
	{KindReplHeartbeat, "primary", "follower", "idle beat carrying the primary's LSN"},
}
