package experiment

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"

	"repro/internal/arch"
	"repro/internal/cpu"
)

// Digest returns a hex SHA-256 fingerprint of the dataset's deterministic
// content: the phase list, every phase's sample space with the simulated
// results attached to it, the per-phase bests, the shared candidate pool
// and the best-static pick. Replays of the same configuration — cold or
// warm store, any WithWorkers count — must
// reproduce it bit for bit; run manifests record it in their
// deterministic section, where cmd/obsdiff compares it exactly.
//
// Only result fields that are pure simulator output join the hash
// (counters and float64 bit patterns). Anything wall-clock or
// store-state-dependent stays out by construction.
func (ds *Dataset) Digest() string {
	h := sha256.New()
	writeU64 := func(v uint64) {
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	writeF64 := func(v float64) { writeU64(math.Float64bits(v)) }
	writeCfg := func(c arch.Config) {
		for p := arch.Param(0); p < arch.NumParams; p++ {
			writeU64(uint64(int64(c[p])))
		}
	}
	writeRes := func(r *cpu.Result) {
		writeU64(r.Cycles)
		writeU64(r.Committed)
		writeF64(r.Efficiency)
		writeF64(r.SecondsSim)
		writeF64(r.EnergyJ)
	}

	fmt.Fprintf(h, "phases=%d\n", len(ds.Phases))
	for _, id := range ds.Phases {
		fmt.Fprintf(h, "phase %s\n", id)
		space := ds.SampleSpace(id)
		writeU64(uint64(len(space)))
		for _, cfg := range space {
			writeCfg(cfg)
			if e := ds.results[id][cfg]; e.res != nil {
				writeRes(e.res)
			}
		}
		if best, ok := ds.Best[id]; ok {
			writeCfg(best)
		}
	}
	fmt.Fprintf(h, "shared=%d\n", len(ds.SharedConfigs))
	for _, cfg := range ds.SharedConfigs {
		writeCfg(cfg)
	}
	writeCfg(ds.BestStatic)
	return hex.EncodeToString(h.Sum(nil))
}
