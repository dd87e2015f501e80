package cpu

import "repro/internal/obs"

// Process-wide simulation volume counters (obs.DefaultRegistry). They are
// pure telemetry: nothing in the simulator reads them, so they cannot
// perturb results.
var (
	obsRuns = obs.DefaultRegistry().Counter("repro_sim_runs_total",
		"Completed cycle-level simulation runs.")
	obsInsts = obs.DefaultRegistry().Counter("repro_sim_instructions_total",
		"Correct-path instructions committed across all runs.")
	obsCycles = obs.DefaultRegistry().Counter("repro_sim_cycles_total",
		"Cycles simulated across all runs.")
	obsStepped = obs.DefaultRegistry().Counter("repro_sim_stepped_cycles_total",
		"Simulated cycles the main loop stepped through one at a time; the rest of repro_sim_cycles_total was fast-forwarded.")
)

// SimulatedInstructions returns the process-wide committed-instruction
// total — the denominator of the ns/inst figure run manifests record in
// their timing section. Telemetry only: nothing may feed it back into
// simulation or search decisions.
func SimulatedInstructions() uint64 { return obsInsts.Value() }
