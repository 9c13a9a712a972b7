package core

// Chunk geometry of the retained trace, for the boundary cases of
// TestChunkedTraceRetention.
const (
	TraceChunkMin = traceChunkMin
	TraceChunkMax = traceChunkMax
)
