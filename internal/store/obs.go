package store

import "repro/internal/obs"

// Process-wide store series (obs.DefaultRegistry): how often the
// persistent cache saved a simulation and how much it moved. These are
// write-only telemetry — nothing in the store or the experiment protocol
// reads them back (per-store accounting lives in Stats).
var (
	obsHits = obs.DefaultRegistry().Counter("repro_store_hits_total",
		"Simulation results answered from the persistent store.")
	obsMisses = obs.DefaultRegistry().Counter("repro_store_misses_total",
		"Store lookups that found no valid record.")
	obsBytesRead = obs.DefaultRegistry().Counter("repro_store_bytes_read_total",
		"Payload bytes served by store hits.")
	obsBytesWritten = obs.DefaultRegistry().Counter("repro_store_bytes_written_total",
		"Payload bytes appended to store logs.")
	obsCompactions = obs.DefaultRegistry().Counter("repro_store_compactions_total",
		"Store log compaction passes completed.")
	obsCorrupt = obs.DefaultRegistry().Counter("repro_store_corrupt_records_total",
		"Corrupt, truncated or undecodable store records dropped.")
	obsOpens = obs.DefaultRegistry().Counter("repro_store_opens_total",
		"Store directories opened.")
	obsMerges = obs.DefaultRegistry().Counter("repro_store_merges_total",
		"Store merge operations completed.")
	obsMergeRecords = obs.DefaultRegistry().Counter("repro_store_merge_records_total",
		"Live records written by store merges.")
)

// ProcessStats returns the process-lifetime store counters (all stores
// combined) — the numbers cmd/report's progress and summary lines show
// next to the in-memory memo hit rate.
func ProcessStats() (hits, misses, bytesRead, bytesWritten, compactions uint64) {
	return obsHits.Value(), obsMisses.Value(), obsBytesRead.Value(),
		obsBytesWritten.Value(), obsCompactions.Value()
}
