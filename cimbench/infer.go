package main

import (
	"fmt"
	"time"

	"cimflow"
)

// inferPool is how many distinct inputs each model cycles through.
const inferPool = 4

// runInfer is a closed loop of one caller: back-to-back Session.Infer on
// warm pooled sessions with engine defaults, alternating resnet18
// (MVM-bound) and mobilenetv2 (dispatch-heavy) over distinct inputs. The
// simulator's data plane and windowed scheduler do nearly all the work;
// compilation happens only in set-up.
func runInfer(b *bench) error {
	var sess [2]*cimflow.Session
	var inputs [2][]cimflow.Tensor
	teardown, err := b.setup(5, func(int) (func(), error) {
		eng, err := cimflow.NewEngine(cimflow.DefaultConfig())
		if err != nil {
			return nil, err
		}
		for m, name := range b.models {
			if sess[m], err = eng.SessionFor(name); err != nil {
				eng.Close()
				return nil, err
			}
			inputs[m] = b.inputs(name, sess[m].InputShape(), inferPool)
			if _, err := sess[m].Infer(b.ctx, inputs[m][0]); err != nil {
				eng.Close()
				return nil, err
			}
		}
		return func() { eng.Close() }, nil
	})
	if err != nil {
		return err
	}
	defer teardown()

	var times, traced, untraced [2][]float64
	var hashes [2][inferPool]uint64
	b.timedOps(func(i int) {
		m, k := i%2, (i/2)%inferPool
		tr := b.tr
		if (i/2)%2 == 0 {
			tr = nil // traced runs alternate traced and untraced rounds
		}
		start := time.Now()
		res, err := sess[m].Infer(b.ctx, inputs[m][k])
		end := time.Now()
		tr.record(0, 0, 0, "infer", start, end)
		b.rep.Attempted++
		if err != nil {
			b.fail("infer %s: %v", b.models[m], err)
			return
		}
		d := ms(end.Sub(start))
		times[m] = append(times[m], d)
		if tr != nil {
			traced[m] = append(traced[m], d)
		} else {
			untraced[m] = append(untraced[m], d)
		}
		h := outputHash(res.Output)
		if hashes[m][k] == 0 {
			hashes[m][k] = h
		} else if hashes[m][k] != h {
			b.mismatch(1, "infer %s input %d: output differs from its earlier inference", b.models[m], k)
		}
	})
	var meds []float64
	for m, name := range b.models {
		if len(times[m]) == 0 {
			return fmt.Errorf("no %s inference completed", name)
		}
		med := b.timing("infer."+name+"_ms", times[m])
		meds = append(meds, med)
	}
	b.e2e("time_ms", geomean(meds))
	b.overhead(traced[:], untraced[:])
	if err := b.markPeakRSS(); err != nil {
		return err
	}
	for m, name := range b.models {
		if n, err := sess[m].Validate(b.ctx, inputs[m][0]); err != nil || n != 0 {
			b.mismatch(1, "validate %s: %d mismatches (%v)", name, n, err)
		}
	}
	if b.tr != nil {
		return b.probeLight()
	}
	return nil
}

// probeLight runs the probes for workloads that do not search: per-model
// probes plus cold estimates of the workload's models at the default
// architecture.
func (b *bench) probeLight() error {
	points, err := b.defaultPoints()
	if err != nil {
		return err
	}
	if err := b.probeEstimates(points); err != nil {
		return err
	}
	return b.probeModels()
}
