package ir

// Hooks for the external ir_test package, whose tests can import the
// workload generators and the loadgen corpus.
var (
	SamePrint       = samePrint
	SameParse       = sameParse
	SameParseModule = sameParseModule
)
