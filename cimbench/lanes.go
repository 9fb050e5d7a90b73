package main

import (
	"fmt"
	"time"

	"cimflow"
)

const (
	laneBatch  = 8
	laneSetups = 3
	// laneShare is how many times more measuring time mobilenetv2 gets
	// than tinyresnet: its batches are 50 times longer, so an equal share
	// would leave it two or three samples.
	laneShare = 3
)

// runLanes is a closed loop of one caller: Session.InferBatch of 8
// distinct inputs on WithSimLanes(8) sessions, mobilenetv2 getting three
// quarters of the measuring time. On mobilenetv2 the shared schedule pays
// for itself; on tinyresnet lane reset and lane-chip memory dominate.
func runLanes(b *bench) error {
	var sess [2]*cimflow.Session
	var inputs [2][]cimflow.Tensor
	teardown, err := b.setup(laneSetups, func(rep int) (func(), error) {
		eng, err := cimflow.NewEngine(cimflow.DefaultConfig())
		if err != nil {
			return nil, err
		}
		for m, name := range b.models {
			if sess[m], err = eng.SessionFor(name, cimflow.WithSimLanes(laneBatch)); err != nil {
				eng.Close()
				return nil, err
			}
			inputs[m] = b.inputs(name, sess[m].InputShape(), laneBatch)
			// The traced run measures the lane chip's live heap around
			// its build in the last set-up.
			measure := b.tr != nil && rep == laneSetups-1
			var before float64
			if measure {
				before = liveHeapMiB()
			}
			if _, err := sess[m].InferBatch(b.ctx, inputs[m]); err != nil {
				eng.Close()
				return nil, err
			}
			if measure {
				b.layerSet("core.chip_mib."+b.role(name)+".lanes8", liveHeapMiB()-before)
			}
		}
		return func() { eng.Close() }, nil
	})
	if err != nil {
		return err
	}
	defer teardown()

	var times, traced, untraced [2][]float64
	var outs [2][][]uint64
	var spent [2]time.Duration
	var count [2]int
	b.timedOps(func(int) {
		m := 0
		if spent[1]*laneShare < spent[0] {
			m = 1
		}
		tr := b.tr
		if count[m]%2 == 0 {
			tr = nil // traced runs alternate traced and untraced batches
		}
		count[m]++
		start := time.Now()
		res, err := sess[m].InferBatch(b.ctx, inputs[m])
		end := time.Now()
		spent[m] += end.Sub(start)
		tr.record(0, 0, 0, "lanes.batch", start, end)
		b.rep.Attempted++
		if err != nil {
			b.fail("batch %s: %v", b.models[m], err)
			return
		}
		d := ms(end.Sub(start)) / laneBatch
		times[m] = append(times[m], d)
		if tr != nil {
			traced[m] = append(traced[m], d)
		} else {
			untraced[m] = append(untraced[m], d)
		}
		hs := make([]uint64, len(res))
		for i, r := range res {
			hs[i] = outputHash(r.Output)
		}
		outs[m] = append(outs[m], hs)
	})
	var meds []float64
	for m, name := range b.models {
		if len(times[m]) == 0 {
			return fmt.Errorf("no %s batch completed", name)
		}
		med := b.timing("lanes."+name+"_ms", times[m])
		meds = append(meds, med)
	}
	b.e2e("time_ms", geomean(meds))
	b.overhead(traced[:], untraced[:])
	if err := b.markPeakRSS(); err != nil {
		return err
	}

	var runs, carried, fallbacks int64
	for m := range sess {
		for occ, n := range sess[m].LaneOccupancy() {
			runs += n
			carried += int64(occ) * n
		}
		fallbacks += sess[m].LaneFallbacks()
	}
	if runs > 0 {
		b.layerSet("core.lane_occupancy_mean", float64(carried)/float64(runs))
	}
	b.layerSet("core.lane_fallbacks", float64(fallbacks))

	teardown() // release the lane chips before building serial ones

	// Every lane must equal a serial inference of the same input.
	serial, err := cimflow.NewEngine(cimflow.DefaultConfig())
	if err != nil {
		return err
	}
	defer serial.Close()
	for m, name := range b.models {
		ref, err := serial.SessionFor(name)
		if err != nil {
			return err
		}
		want := make([]uint64, laneBatch)
		for i, in := range inputs[m] {
			res, err := ref.Infer(b.ctx, in)
			if err != nil {
				return fmt.Errorf("serial %s: %w", name, err)
			}
			want[i] = outputHash(res.Output)
		}
		for k, hs := range outs[m] {
			for i := range hs {
				if hs[i] != want[i] {
					b.mismatch(1, "batch %d of %s: lane %d differs from the serial inference", k, name, i)
				}
			}
		}
		if n, err := ref.Validate(b.ctx, inputs[m][0]); err != nil || n != 0 {
			b.mismatch(1, "validate %s: %d mismatches (%v)", name, n, err)
		}
	}
	if b.tr != nil {
		return b.probeLight()
	}
	return nil
}
