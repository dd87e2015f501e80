package experiment_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/counters"
	"repro/internal/cpu"
	"repro/internal/experiment"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/surrogate"
)

// storeState is a contract cell's store axis.
type storeState int

const (
	noStore storeState = iota
	coldStore
	warmStore
)

func (s storeState) String() string { return [...]string{"none", "cold", "warm"}[s] }

// contractCell is one combination of build options in TestBuildContracts.
type contractCell struct {
	workers   int // 0: Build's default, runtime.GOMAXPROCS(0)
	surrogate bool
	store     storeState
}

func (c contractCell) String() string {
	workers := "default"
	if c.workers > 0 {
		workers = fmt.Sprint(c.workers)
	}
	return fmt.Sprintf("workers=%s/surrogate=%t/store=%s", workers, c.surrogate, c.store)
}

// contractCells enumerates the matrix: workers {1, 3, default} ×
// surrogate {off, on} × store {none, cold, warm}. The default is what
// adaptd, report and perfbench build with. A cold cell precedes its warm
// cell, and every workers=1 cell precedes its twins.
func contractCells() []contractCell {
	var cells []contractCell
	for _, w := range []int{1, 3, 0} {
		for _, sur := range []bool{false, true} {
			for _, st := range []storeState{noStore, coldStore, warmStore} {
				cells = append(cells, contractCell{w, sur, st})
			}
		}
	}
	return cells
}

// contractBuild is what one build exposes to the contract.
type contractBuild struct {
	ds       *experiment.Dataset
	digest   string
	manifest *obs.Manifest
	render   string // Table III + suite + Figure 7; empty when not rendered
}

func newContractBuild(t *testing.T, ds *experiment.Dataset, render bool) contractBuild {
	t.Helper()
	b := contractBuild{ds: ds, digest: ds.Digest(), manifest: obs.NewManifest("report")}
	experiment.FillBuildManifest(b.manifest, ds)
	if render {
		b.render = renderPipeline(t, ds)
	}
	return b
}

// renderPipeline renders a representative slice of the paper outputs —
// Table III, the suite comparison, Figure 7 — into one string. The LOOCV
// behind it simulates model predictions through Dataset.Result, so with a
// store attached those simulations join the store log too.
func renderPipeline(t *testing.T, ds *experiment.Dataset) string {
	t.Helper()
	ev, err := ds.EvaluateModel(counters.Basic)
	if err != nil {
		t.Fatal(err)
	}
	fig7, err := ds.Figure7(ev)
	if err != nil {
		t.Fatal(err)
	}
	return ds.TableIII().Render() + ds.Suite(ev, ev).Render() + fig7.Render()
}

// contractScale is TestScale with three programs and one stage-3 sweep:
// all three search stages batched across workers and pruned by the
// surrogate, and small enough that the LOOCV behind each rendered cell
// stays cheap.
func contractScale() experiment.Scale {
	sc := experiment.TestScale()
	sc.Programs = sc.Programs[:3]
	sc.SweepParams = []arch.Param{arch.Width}
	return sc
}

// TestBuildContracts checks the repository's dataset identity contracts
// with one test body over every combination of worker count, surrogate
// and store state. Each cell must reproduce the sequential, storeless
// build with the same surrogate setting: the same Dataset.Digest,
// manifest deterministic section, good sets, profiling results and
// features, and the same fresh search simulations — paid by the build (no
// store, cold) or not at all (warm replays, which never miss the store
// and simulate nothing, profiling runs and rendered predictions
// included). Store logs are byte-identical across worker counts, every
// store's hit and
// miss counts match the workers=1 cell's, every store directory passes
// store.CheckDir with one live record per indexed record, and the
// rendered tables are byte-identical for every store state. One cell runs
// with the process tracer on and checks its Chrome trace export.
func TestBuildContracts(t *testing.T) {
	sc := contractScale()
	ctx := context.Background()

	// build runs one experiment.Build and returns the dataset with the
	// fresh search simulations it paid.
	build := func(t *testing.T, st *store.Store, opts []experiment.Option) (*experiment.Dataset, uint64) {
		t.Helper()
		before := experiment.SearchSimCount()
		ds, err := experiment.Build(ctx, sc, append(opts, experiment.WithStore(st))...)
		if err != nil {
			t.Fatal(err)
		}
		return ds, experiment.SearchSimCount() - before
	}
	optsFor := func(c contractCell) []experiment.Option {
		var opts []experiment.Option
		if c.workers > 0 {
			opts = append(opts, experiment.WithWorkers(c.workers))
		}
		if c.surrogate {
			opts = append(opts, experiment.WithSurrogate(surrogate.Config{}))
		}
		return opts
	}

	type reference struct {
		contractBuild
		sims uint64
	}
	refs := map[bool]reference{}
	for _, sur := range []bool{false, true} {
		ds, sims := build(t, nil, optsFor(contractCell{workers: 1, surrogate: sur}))
		if sims == 0 {
			t.Fatalf("surrogate=%t reference paid no search sims; the matrix cannot discriminate", sur)
		}
		refs[sur] = reference{newContractBuild(t, ds, true), sims}
	}
	if refs[true].sims >= refs[false].sims {
		t.Fatalf("surrogate reference paid %d search sims, plain %d: the surrogate axis prunes nothing",
			refs[true].sims, refs[false].sims)
	}

	// Store directories live under the parent test, so a warm cell replays
	// what its cold cell wrote; twins holds each workers=1 cell's store log
	// and its store's hit and miss counts.
	type storeTrail struct {
		log   []byte
		stats store.Stats
	}
	root := t.TempDir()
	twins := map[contractCell]storeTrail{}
	traced := contractCell{workers: 3, surrogate: true, store: coldStore}

	cells := contractCells()
	if len(cells) != 18 {
		t.Fatalf("matrix has %d cells, want 18", len(cells))
	}
	for _, c := range cells {
		t.Run(c.String(), func(t *testing.T) {
			ref := refs[c.surrogate]
			opts := optsFor(c)
			if c == traced {
				tr := obs.DefaultTracer()
				tr.Reset()
				tr.Enable()
				defer func() {
					tr.Disable()
					checkChromeTrace(t, tr)
					tr.Reset()
				}()
			}
			dir := filepath.Join(root, fmt.Sprintf("w%d-sur%t", c.workers, c.surrogate))

			var trail storeTrail
			var st *store.Store
			if c.store != noStore {
				var err error
				if st, err = store.Open(dir); err != nil {
					t.Fatal(err)
				}
			}
			insts := cpu.SimulatedInstructions()
			ds, paid := build(t, st, opts)
			got := newContractBuild(t, ds, c.store != noStore)
			if simulated := cpu.SimulatedInstructions() - insts; c.store == warmStore && simulated != 0 {
				t.Errorf("warm build and render simulated %d instructions, want none", simulated)
			}
			if st != nil {
				trail.stats = st.Stats()
				if c.store == warmStore && trail.stats.Misses != 0 {
					t.Errorf("warm build missed the store %d times", trail.stats.Misses)
				}
				if err := st.Close(); err != nil {
					t.Fatal(err)
				}
				check, err := store.CheckDir(dir)
				if err != nil {
					t.Fatal(err)
				}
				if !check.Ok() || check.Live != trail.stats.Records {
					t.Errorf("store audit: faults %v, %d live records; the store indexed %d",
						check.Faults, check.Live, trail.stats.Records)
				}
			}

			if got.digest != ref.digest {
				t.Errorf("dataset digest %s, reference %s", got.digest, ref.digest)
			}
			if field := obs.DiffDeterministic(ref.manifest, got.manifest); field != "" {
				t.Errorf("manifest deterministic section differs from the reference at %s", field)
			}
			if !reflect.DeepEqual(got.ds.Good, ref.ds.Good) {
				t.Error("good sets differ from the reference")
			}
			if !reflect.DeepEqual(got.ds.FeaturesAdv, ref.ds.FeaturesAdv) ||
				!reflect.DeepEqual(got.ds.FeaturesBasic, ref.ds.FeaturesBasic) {
				t.Error("profiling features differ from the reference")
			}
			if !reflect.DeepEqual(got.ds.ProfileRes, ref.ds.ProfileRes) {
				t.Error("profiling results differ from the reference")
			}
			wantPaid := ref.sims
			if c.store == warmStore {
				wantPaid = 0
			}
			if paid != wantPaid {
				t.Errorf("paid %d fresh search sims, want %d", paid, wantPaid)
			}
			if got.render != "" && got.render != ref.render {
				t.Errorf("rendered tables differ from the reference:\n--- reference ---\n%s\n--- got ---\n%s", ref.render, got.render)
			}

			if c.store == noStore {
				return
			}
			var err error
			if trail.log, err = os.ReadFile(store.HeadLog(dir)); err != nil {
				t.Fatal(err)
			}
			twin := c
			twin.workers = 1
			want, ok := twins[twin]
			switch {
			case c == twin:
				twins[c] = trail
			case !ok:
				t.Error("no workers=1 cell to compare against")
			default:
				if !bytes.Equal(trail.log, want.log) {
					t.Errorf("results.log differs from the workers=1 log: %d bytes vs %d", len(trail.log), len(want.log))
				}
				// A pool that looked a result up twice, or simulated one
				// the store held, moves these counts.
				if got, w := trail.stats, want.stats; got.Hits != w.Hits || got.Misses != w.Misses {
					t.Errorf("%d store hits, %d misses; workers=1 %d hits, %d misses",
						got.Hits, got.Misses, w.Hits, w.Misses)
				}
			}
		})
	}
}

// checkChromeTrace validates tr's Chrome trace_event export: it parses as
// JSON, holds at least one complete ("X") event, and every event has a
// name.
func checkChromeTrace(t *testing.T, tr *obs.Tracer) {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name  string `json:"name"`
			Phase string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	complete := 0
	for i, ev := range doc.TraceEvents {
		if strings.TrimSpace(ev.Name) == "" {
			t.Errorf("trace event %d has no name", i)
		}
		if ev.Phase == "X" {
			complete++
		}
	}
	if complete == 0 {
		t.Errorf("chrome trace holds no complete (ph=X) events among %d", len(doc.TraceEvents))
	}
}
