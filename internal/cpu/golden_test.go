package cpu

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/cache"
	"repro/internal/power"
	"repro/internal/stats"
	"repro/internal/trace"
)

// The golden-digest suite pins the simulator's observable output bit for
// bit: SHA-256 over a canonical encoding of Result and RawCounters for a
// seeded sample of (config, workload, phase) triples, captured before the
// hot-path overhaul. Performance work must keep every digest unchanged;
// a physics change (calibration levers, power constants, simulator
// semantics) will trip this test and REQUIRES bumping store.SimVersion
// alongside regenerating the file with REPRO_UPDATE_GOLDEN=1.

const goldenPath = "testdata/golden_digests.txt"

// canon accumulates the canonical little-endian encoding being digested.
type canon struct {
	buf []byte
}

func (c *canon) u64(v uint64) { c.buf = binary.LittleEndian.AppendUint64(c.buf, v) }
func (c *canon) i64(v int64)  { c.u64(uint64(v)) }
func (c *canon) f64(v float64) {
	c.u64(math.Float64bits(v))
}

func (c *canon) hist(h *stats.Histogram) {
	if h == nil {
		c.u64(^uint64(0))
		return
	}
	c.u64(uint64(len(h.Counts)))
	for _, n := range h.Counts {
		c.u64(n)
	}
	c.u64(h.Total)
}

func (c *canon) profiler(p *cache.Profiler) {
	if p == nil {
		c.u64(^uint64(0))
		return
	}
	c.u64(p.Observations())
	c.hist(p.StackDist)
	c.hist(p.BlockReuse)
	c.hist(p.SetReuse)
	c.hist(p.ReducedSets)
}

func (c *canon) result(r *Result) {
	for p := arch.Param(0); p < arch.NumParams; p++ {
		c.i64(int64(r.Config[p]))
	}
	c.u64(r.Cycles)
	c.u64(r.Committed)
	c.u64(r.Fetched)
	c.u64(r.WrongPath)
	c.u64(r.BranchLookups)
	c.u64(r.Mispredicts)
	c.u64(r.BTBMisses)
	c.u64(r.L1IAccesses)
	c.u64(r.L1IMisses)
	c.u64(r.L1DAccesses)
	c.u64(r.L1DMisses)
	c.u64(r.L2Accesses)
	c.u64(r.L2Misses)
	c.u64(r.Energy.Cycles)
	c.f64(r.Energy.DynamicJ)
	c.f64(r.Energy.LeakageJ)
	c.f64(r.Energy.TotalJ)
	for st := power.Structure(0); st < power.NumStructures; st++ {
		c.f64(r.Energy.PerStructureJ[st])
	}
	c.f64(r.Energy.AvgPowerW)
	c.f64(r.IPC)
	c.f64(r.SecondsSim)
	c.f64(r.IPS)
	c.f64(r.Watts)
	c.f64(r.EnergyJ)
	c.f64(r.Efficiency)
	if r.Counters == nil {
		c.u64(0)
		return
	}
	c.u64(1)
	cnt := r.Counters
	c.hist(cnt.ALUUsage)
	c.hist(cnt.MemPortUsage)
	c.hist(cnt.ROBOcc)
	c.hist(cnt.IQOcc)
	c.hist(cnt.LSQOcc)
	c.f64(cnt.IQSpecFrac)
	c.f64(cnt.IQMisspecFrac)
	c.f64(cnt.LSQSpecFrac)
	c.f64(cnt.LSQMisspecFrac)
	c.hist(cnt.IntRegUsage)
	c.hist(cnt.FpRegUsage)
	c.hist(cnt.RdPortUsage)
	c.hist(cnt.WrPortUsage)
	c.profiler(cnt.ICache)
	c.profiler(cnt.DCache)
	c.profiler(cnt.L2)
	c.hist(cnt.BTBReuse)
	c.f64(cnt.MispredictRate)
	c.f64(cnt.CPI)
}

func (c *canon) inst(in trace.Inst) {
	c.u64(uint64(in.PC))
	c.u64(uint64(in.Addr))
	c.u64(uint64(in.Target))
	c.u64(uint64(in.BB))
	c.u64(uint64(in.Op))
	c.i64(int64(in.Dst))
	c.i64(int64(in.Src1))
	c.i64(int64(in.Src2))
	if in.Taken {
		c.u64(1)
	} else {
		c.u64(0)
	}
}

func (c *canon) digest() string {
	sum := sha256.Sum256(c.buf)
	return hex.EncodeToString(sum[:])
}

// goldenCase is one digested scenario.
type goldenCase struct {
	name    string
	program string
	phase   int
	n       int
	cfg     arch.Config
	opts    Options
}

// goldenCases returns the seeded sample: every option path is covered
// (warmup, collection with and without set sampling, reconfiguration
// overheads, wrong-path-heavy and memory-bound workloads) across a spread
// of random configurations. The case list must stay stable: digests are
// keyed by name.
func goldenCases() []goldenCase {
	rng := rand.New(rand.NewPCG(0x601d, 0xd16e57))
	var out []goldenCase
	add := func(name, prog string, phase, n int, cfg arch.Config, opts Options) {
		out = append(out, goldenCase{name, prog, phase, n, cfg, opts})
	}
	// Fixed anchors on the named configurations.
	add("baseline-gzip", "gzip", 0, 4000, arch.Baseline(), Options{WarmupInsts: 2000})
	add("baseline-mcf-memory", "mcf", 1, 3000, arch.Baseline(), Options{WarmupInsts: 1500})
	add("baseline-parser-branchy", "parser", 0, 4000, arch.Baseline(), Options{})
	add("min-config-swim", "swim", 2, 2500, arch.MinConfig(), Options{})
	add("profiling-vortex-collect", "vortex", 0, 4000, arch.Profiling(), Options{Collect: true})
	add("profiling-art-sampled", "art", 3, 4000, arch.Profiling(), Options{Collect: true, SampledSets: 16})
	add("profiling-crafty-collect-warm", "crafty", 1, 3000, arch.Profiling(), Options{Collect: true, WarmupInsts: 1500})
	add("baseline-gcc-reconfig-cost", "gcc", 0, 3000, arch.Baseline(),
		Options{StartStall: 700, FlushCaches: true, ExtraEnergyPJ: 5e6})
	// Random configurations over a spread of workloads and phases.
	progs := []string{
		"gzip", "vpr", "gcc", "mcf", "crafty", "parser", "eon", "gap",
		"vortex", "bzip2", "twolf", "swim", "mgrid", "applu", "art",
		"equake", "ammp", "sixtrack", "apsi", "wupwise",
	}
	for i, prog := range progs {
		cfg := arch.Random(rng)
		phase := i % trace.PhasesPerProgram
		opts := Options{}
		if i%3 == 1 {
			opts.WarmupInsts = 1200
		}
		if i%5 == 2 {
			opts.Collect = true
			opts.SampledSets = 8 << (i % 3)
		}
		add(fmt.Sprintf("random-%02d-%s", i, prog), prog, phase, 2500, cfg, opts)
	}
	// Build-shaped, stall-heavy cases: memory-bound workloads on windows
	// small enough that dispatch sits resource-blocked behind outstanding
	// misses, the dataset build's 2,500/1,200 run shape, descending ROB
	// sizes (so pooled arenas are resliced, not reallocated) and a clock
	// account that starts from a reconfiguration charge. Appended after the
	// original cases so those keep their arena-recycling order.
	build := Options{WarmupInsts: 1200}
	small := arch.Baseline().
		With(arch.ROBSize, 40).With(arch.IQSize, 16).
		With(arch.LSQSize, 8).With(arch.RFSize, 48)
	for _, prog := range []string{"mcf", "art"} {
		add("stall-min-"+prog, prog, 1, 2500, arch.MinConfig(), build)
		add("stall-small-window-"+prog, prog, 1, 2500, small, build)
	}
	for _, rob := range []int{160, 128, 96, 64, 32} {
		add(fmt.Sprintf("stall-rob%03d-equake", rob), "equake", 2, 2500,
			arch.Baseline().With(arch.ROBSize, rob), build)
	}
	add("stall-profiling-mcf-build", "mcf", 3, 2500, arch.Profiling(),
		Options{Collect: true, SampledSets: 16, WarmupInsts: 1200})
	add("stall-reconfig-art", "art", 0, 2500, small,
		Options{WarmupInsts: 1200, StartStall: 900, FlushCaches: true, ExtraEnergyPJ: 3.25e6})
	// Counter collection under long stalls: the profiling configuration at
	// the deepest pipeline (9 FO4 per stage, so memory latencies are the
	// most cycles) on memory-bound phases, where most sampled cycles are
	// fast-forwarded ones.
	deep := arch.Profiling().With(arch.DepthFO4, 9)
	for _, prog := range []string{"mcf", "art"} {
		add("stall-profiling-fo9-"+prog, prog, 1, 2500, deep,
			Options{Collect: true, SampledSets: 16, WarmupInsts: 1200})
	}
	return out
}

// computeDigests runs every golden case plus the raw-trace anchors and
// returns name -> digest in case order.
func computeDigests(t *testing.T) ([]string, map[string]string) {
	t.Helper()
	var order []string
	digests := map[string]string{}
	// Raw-trace anchors pin the generator itself, so a trace-generation
	// change cannot hide behind a compensating simulator change.
	for _, tc := range []struct {
		prog  string
		phase int
	}{{"gzip", 0}, {"mcf", 1}, {"swim", 2}, {"parser", 3}} {
		g, err := trace.NewGenerator(tc.prog, tc.phase)
		if err != nil {
			t.Fatal(err)
		}
		var c canon
		for _, in := range g.Interval(5000) {
			c.inst(in)
		}
		name := fmt.Sprintf("trace-%s-%d", tc.prog, tc.phase)
		order = append(order, name)
		digests[name] = c.digest()
	}
	// Each case releases its Sim, so later cases run on run-state arenas
	// and cache line arrays recycled from earlier cases' configurations:
	// the pinned digests, recorded on fresh allocations, gate recycling.
	for _, gc := range goldenCases() {
		insts := mkTrace(t, gc.program, gc.phase, gc.n)
		sim, err := New(gc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run(NewSliceSource(insts), len(insts), gc.opts)
		if err != nil {
			t.Fatal(err)
		}
		sim.Release()
		var c canon
		c.result(res)
		order = append(order, gc.name)
		digests[gc.name] = c.digest()
	}
	return order, digests
}

func TestGoldenDigests(t *testing.T) {
	order, digests := computeDigests(t)

	if os.Getenv("REPRO_UPDATE_GOLDEN") != "" {
		var sb strings.Builder
		sb.WriteString("# SHA-256 digests of canonically-encoded simulator output.\n")
		sb.WriteString("# Regenerate with REPRO_UPDATE_GOLDEN=1 go test ./internal/cpu -run TestGoldenDigests\n")
		sb.WriteString("# A change here is a physics change: bump store.SimVersion in the same commit.\n")
		for _, name := range order {
			fmt.Fprintf(&sb, "%s %s\n", name, digests[name])
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d digests to %s", len(order), goldenPath)
		return
	}

	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatalf("golden file missing (run REPRO_UPDATE_GOLDEN=1 go test -run TestGoldenDigests): %v", err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("malformed golden line %q", line)
		}
		want[fields[0]] = fields[1]
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(order) {
		t.Errorf("golden file has %d digests, suite has %d cases", len(want), len(order))
	}
	for _, name := range order {
		w, ok := want[name]
		if !ok {
			t.Errorf("%s: no golden digest recorded", name)
			continue
		}
		if got := digests[name]; got != w {
			t.Errorf("%s: digest %s != golden %s — simulator output changed; "+
				"if intentional, bump store.SimVersion and regenerate", name, got, w)
		}
	}
}
