package main

import (
	"fmt"
	"runtime"
	"time"

	"cimflow"
)

// dseSpec is the dse-search space: 2 models x 2 strategies x 4 macro-group
// sizes x 2 flit widths x 2 core meshes = 64 points.
func (b *bench) dseSpec() *cimflow.SweepSpec {
	return &cimflow.SweepSpec{
		Name:       "dse-search",
		Models:     b.models[:],
		Strategies: []string{"generic", "dp"},
		MGSizes:    []int{4, 8, 12, 16},
		FlitBytes:  []int{8, 16},
		CoreMeshes: [][2]int{{8, 8}, {6, 6}},
		Seed:       b.sub("weights")%1000 + 1,
	}
}

// runDSE repeats one successive-halving search (budget 4, a fresh compile
// cache each time, one worker per CPU) for the run's measuring time. Cold
// planning-stage estimates and four full simulations do the work.
func runDSE(b *bench) error {
	spec := b.dseSpec()
	var points []cimflow.SweepPoint
	// A search holds no serving state: its set-up only resolves the models
	// and expands the space. That takes well under a millisecond, so it is
	// repeated often enough for a steady median.
	_, err := b.setup(21, func(int) (func(), error) {
		for _, m := range spec.Models {
			if _, err := cimflow.LookupModel(m); err != nil {
				return nil, err
			}
		}
		base, err := spec.BaseConfig()
		if err != nil {
			return nil, err
		}
		points, err = spec.Expand(base)
		return func() {}, err
	})
	if err != nil {
		return err
	}
	if len(points) != 64 {
		return fmt.Errorf("dse-search space has %d points, want 64", len(points))
	}
	searchSeed := int64(b.sub("search") >> 1)

	var first *cimflow.SearchResult
	var all, traced, untraced, simMs, compileMs []float64
	b.timedOps(func(i int) {
		// Each search starts from a collected heap, as a search run on its
		// own would, so neither its time nor the memory high-water mark
		// depends on when the previous search's garbage gets collected.
		freeMemory()
		tr := b.tr
		if i%2 == 0 {
			tr = nil // traced runs alternate traced and untraced searches
		}
		opt := cimflow.SearchOptions{
			Strategy: "halving",
			Budget:   4,
			Seed:     searchSeed,
			Workers:  runtime.NumCPU(),
			Cache:    cimflow.NewCompileCache(),
		}
		id := tr.id()
		if tr != nil {
			// OnSim fires as each charged simulation is reported, so the
			// span ends at the report and reaches back by its SimTime.
			opt.OnSim = func(p cimflow.SweepResult) {
				end := time.Now()
				tr.record(0, id, 0, "search.sim", end.Add(-p.SimTime), end)
			}
		}
		start := time.Now()
		res, err := cimflow.Search(b.ctx, spec, opt)
		end := time.Now()
		tr.record(id, 0, 0, "search", start, end)
		b.rep.Attempted++
		if err != nil {
			b.fail("search %d: %v", i, err)
			return
		}
		d := ms(end.Sub(start))
		all = append(all, d)
		if tr != nil {
			traced = append(traced, d)
		} else {
			untraced = append(untraced, d)
		}
		var sm, cm time.Duration
		for _, p := range res.Trajectory {
			if p.Err != nil {
				b.fail("search %d: point %s: %v", i, p.Point.Label(), p.Err)
			}
			sm += p.SimTime
			cm += p.CompileTime
		}
		simMs = append(simMs, ms(sm))
		compileMs = append(compileMs, ms(cm))
		if first == nil {
			first = res
		} else if !sameSearch(first, res) {
			b.mismatch(1, "search %d: trajectory differs from the first search at the same seed", i)
		}
	})
	if first == nil {
		return fmt.Errorf("no search completed")
	}
	med := b.timing("dse.search_ms", all)
	b.detail("dse.search_s", med/1e3, "s", fmt.Sprintf("median of %d searches: %s ms", len(all), fmtList(all)))
	b.e2e("time_ms", med)
	b.detail("search.sim_ms", median(simMs), "ms", "sum of the trajectory's SimTime, median over searches")
	b.detail("search.compile_ms", median(compileMs), "ms", "sum of the trajectory's CompileTime, median over searches")
	b.detail("search.frontier", float64(len(first.Frontier)), "points", frontierLabels(first))
	b.layerSet("search.sims", float64(first.Sims))
	b.layerSet("search.estimates", float64(first.Estimates))
	b.overhead([][]float64{traced}, [][]float64{untraced})
	if err := b.markPeakRSS(); err != nil {
		return err
	}

	if b.tr != nil {
		if err := b.probeEstimates(points); err != nil {
			return err
		}
		if err := b.probeModels(); err != nil {
			return err
		}
	}
	return b.checkFrontier(first)
}

// sameSearch reports whether two searches charged the same points with
// the same simulated metrics, in the same order.
func sameSearch(a, b *cimflow.SearchResult) bool {
	if a.Sims != b.Sims || a.Estimates != b.Estimates || len(a.Trajectory) != len(b.Trajectory) {
		return false
	}
	for i := range a.Trajectory {
		if a.Trajectory[i].Point.Key() != b.Trajectory[i].Point.Key() || a.Trajectory[i].Metrics != b.Trajectory[i].Metrics {
			return false
		}
	}
	return true
}

func frontierLabels(r *cimflow.SearchResult) string {
	s := ""
	for i, p := range r.Frontier {
		if i > 0 {
			s += " "
		}
		s += p.Point.Label()
	}
	return s
}

// checkFrontier re-simulates every frontier point directly through an
// Engine session and checks it against the search's metrics, and checks
// each model against the golden reference executor.
func (b *bench) checkFrontier(r *cimflow.SearchResult) error {
	validated := make(map[string]bool)
	for _, p := range r.Frontier {
		eng, err := cimflow.NewEngine(p.Point.Config)
		if err != nil {
			return err
		}
		sess, err := eng.SessionFor(p.Point.Model, cimflow.WithStrategy(p.Point.Strategy), cimflow.WithSeed(p.Point.Seed))
		if err != nil {
			eng.Close()
			return err
		}
		in := sess.SeededInput(p.Point.Seed + 1)
		res, err := sess.Infer(b.ctx, in)
		if err != nil {
			b.mismatch(1, "re-simulate %s: %v", p.Point.Label(), err)
		} else if res.Stats.Cycles != p.Metrics.Cycles || res.EnergyMJ != p.Metrics.EnergyMJ || res.TOPS != p.Metrics.TOPS {
			b.mismatch(1, "re-simulate %s: cycles %d energy %v mJ, search recorded %d and %v mJ",
				p.Point.Label(), res.Stats.Cycles, res.EnergyMJ, p.Metrics.Cycles, p.Metrics.EnergyMJ)
		}
		if !validated[p.Point.Model] {
			validated[p.Point.Model] = true
			if n, err := sess.Validate(b.ctx, in); err != nil || n != 0 {
				b.mismatch(1, "validate %s: %d mismatches (%v)", p.Point.Label(), n, err)
			}
		}
		eng.Close()
	}
	for _, m := range b.models {
		if !validated[m] {
			if err := b.validateDefault(m); err != nil {
				return err
			}
		}
	}
	return nil
}

// validateDefault checks a model at the default architecture against the
// golden reference executor.
func (b *bench) validateDefault(model string) error {
	eng, err := cimflow.NewEngine(cimflow.DefaultConfig())
	if err != nil {
		return err
	}
	defer eng.Close()
	sess, err := eng.SessionFor(model)
	if err != nil {
		return err
	}
	if n, err := sess.Validate(b.ctx, b.inputs(model, sess.InputShape(), 1)[0]); err != nil || n != 0 {
		b.mismatch(1, "validate %s: %d mismatches (%v)", model, n, err)
	}
	return nil
}
