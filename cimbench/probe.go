package main

import (
	"fmt"
	"path/filepath"
	"time"

	"cimflow"
)

// Probes run only in traced runs, after the workload's timed traffic, on
// engines of their own. They measure each layer of the workload's two
// models in isolation — fresh compile, artifact load, first and unloaded
// inference, chip memory and the exact simulated work — so every
// workload reports the same per-layer figures for its models.

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// probeModels probes the workload's two models and the fixed
// per-inference cost.
func (b *bench) probeModels() error {
	for _, name := range b.models {
		if err := b.probeModel(name); err != nil {
			return fmt.Errorf("probe %s: %w", name, err)
		}
	}
	return b.probeFixed()
}

// probeModel measures one model at the default architecture.
func (b *bench) probeModel(name string) error {
	g, err := cimflow.LookupModel(name)
	if err != nil {
		return err
	}
	cfg := cimflow.DefaultConfig()
	eng, err := cimflow.NewEngine(cfg)
	if err != nil {
		return err
	}
	defer eng.Close()
	r := b.role(name)
	var sess *cimflow.Session
	b.tr.do("probe.compile", func() { sess, err = eng.Session(g) })
	if err != nil {
		return err
	}
	if info := sess.CompileInfo(); info.Source != cimflow.CompileFresh {
		b.mismatch(1, "probe %s: compile came from %v, want a fresh compile", name, info.Source)
	} else {
		b.layerSet("compiler.compile_ms."+r, ms(info.Duration))
	}
	instrs := 0
	for _, p := range sess.Compiled().Programs {
		instrs += len(p.Code)
	}
	b.layerSet("compiler.static_instrs."+r, float64(instrs))

	in := b.inputs(name, sess.InputShape(), 1)[0]
	before := liveHeapMiB()
	var first *cimflow.Result
	start := time.Now()
	b.tr.do("probe.first_infer", func() { first, err = sess.Infer(b.ctx, in) })
	firstMs := ms(time.Since(start))
	if err != nil {
		return err
	}
	b.layerSet("core.chip_mib."+r, liveHeapMiB()-before)
	b.layerSet("core.first_infer_ms."+r, firstMs)
	st := first.Stats
	b.layerSet("sim.cycles."+r, float64(st.Cycles))
	b.layerSet("sim.instructions."+r, float64(st.Instructions))
	b.layerSet("sim.macs."+r, float64(st.MACs))
	b.layerSet("sim.noc_bytes."+r, float64(st.NoCBytes))
	b.layerSet("sim.energy_pj."+r, st.Energy.TotalPJ())

	// Unloaded service time: back-to-back inferences of one input on the
	// warm session, at least three and at least half a second of them.
	var svc []float64
	for t0 := time.Now(); len(svc) < 3 || time.Since(t0) < 500*time.Millisecond; {
		var res *cimflow.Result
		s := time.Now()
		b.tr.do("probe.infer", func() { res, err = sess.Infer(b.ctx, in) })
		svc = append(svc, ms(time.Since(s)))
		if err != nil {
			return err
		}
		if res.Stats.Cycles != st.Cycles || outputHash(res.Output) != outputHash(first.Output) {
			b.mismatch(1, "probe %s: a repeated inference of one input differs", name)
		}
	}
	svcMs := median(svc)
	b.layerSet("core.service_ms."+r, svcMs)
	b.layerSet("sim.mcycles_per_s."+r, float64(st.Cycles)/(svcMs/1e3)/1e6)

	// Warm restart: persist the artifact, then load it on a new engine.
	dir := filepath.Join(b.tmp, "probe-store-"+name)
	store, err := cimflow.OpenArtifactStore(dir)
	if err != nil {
		return err
	}
	if _, err := store.Save(sess.Compiled(), cimflow.CompileOptions{Strategy: cimflow.StrategyGeneric}); err != nil {
		store.Close()
		return err
	}
	if err := store.Close(); err != nil {
		return err
	}
	if store, err = cimflow.OpenArtifactStore(dir); err != nil {
		return err
	}
	warm, err := cimflow.NewEngine(cfg, cimflow.WithArtifactStore(store))
	if err != nil {
		store.Close()
		return err
	}
	defer warm.Close()
	var loaded *cimflow.Session
	b.tr.do("probe.artifact_load", func() { loaded, err = warm.Session(g) })
	if err != nil {
		return err
	}
	if info := loaded.CompileInfo(); info.Source != cimflow.CompileStore {
		b.mismatch(1, "probe %s: warm restart came from %v, want the artifact store", name, info.Source)
	} else {
		b.layerSet("artifact.load_ms."+r, ms(info.Duration))
	}
	return nil
}

// probeFixed times the per-inference fixed cost — chip acquire, reset,
// input staging and output readout — on tinymlp, whose simulation is a
// few hundred cycles.
func (b *bench) probeFixed() error {
	eng, err := cimflow.NewEngine(cimflow.DefaultConfig())
	if err != nil {
		return err
	}
	defer eng.Close()
	sess, err := eng.SessionFor("tinymlp")
	if err != nil {
		return err
	}
	in := b.inputs("tinymlp", sess.InputShape(), 1)[0]
	if _, err := sess.Infer(b.ctx, in); err != nil {
		return err
	}
	var xs []float64
	for t0 := time.Now(); len(xs) < 50 || time.Since(t0) < 300*time.Millisecond; {
		s := time.Now()
		if _, err := sess.Infer(b.ctx, in); err != nil {
			return err
		}
		xs = append(xs, ms(time.Since(s)))
	}
	b.layerSet("core.fixed_ms", median(xs))
	return nil
}

// probeEstimates times cold planning-stage cost estimates of points, each
// on a fresh compile cache, and records their mean and count.
func (b *bench) probeEstimates(points []cimflow.SweepPoint) error {
	var xs []float64
	for i := range points {
		cache := cimflow.NewCompileCache()
		s := time.Now()
		var err error
		b.tr.do("compiler.estimate", func() { _, err = cimflow.PointEstimate(cache, &points[i]) })
		if err != nil {
			return fmt.Errorf("estimate %s: %w", points[i].Label(), err)
		}
		xs = append(xs, ms(time.Since(s)))
	}
	b.layerSet("compiler.estimate_ms", mean(xs))
	b.layerSet("compiler.estimates", float64(len(xs)))
	return nil
}

// defaultPoints expands the workload's two models under both generic and
// dp compilation at the default architecture.
func (b *bench) defaultPoints() ([]cimflow.SweepPoint, error) {
	spec := &cimflow.SweepSpec{Models: b.models[:], Strategies: []string{"generic", "dp"}}
	base, err := spec.BaseConfig()
	if err != nil {
		return nil, err
	}
	return spec.Expand(base)
}
