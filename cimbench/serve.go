package main

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"path/filepath"
	"sync/atomic"
	"time"

	"cimflow"
)

const (
	// servePool is how many distinct inputs each served model draws from.
	servePool = 32
	// deadline is every request's latency limit, from its due time.
	deadline = 100 * time.Millisecond
)

var levels = [3]string{"low", "mid", "high"}

// serveSession is how served sessions are built. Serving parallelises
// across chips, so each chip simulates on one worker, as the library
// advises for serving layers.
var serveSession = []cimflow.Option{cimflow.WithSimWorkers(1)}

// reqTrace carries a traced request's span IDs to the wrapped backend
// and brings back the time spent inside it.
type reqTrace struct {
	route, req int64
	backendNs  atomic.Int64
}

type reqKey struct{}

// timedBackend wraps the replica so a traced run can split a routed call
// into the router's own time and the serving tier's time.
type timedBackend struct {
	cimflow.ClusterBackend
	tr *tracer
}

func (t timedBackend) Infer(ctx context.Context, model string, in cimflow.Tensor) (*cimflow.Result, error) {
	rt, _ := ctx.Value(reqKey{}).(*reqTrace)
	if rt == nil {
		return t.ClusterBackend.Infer(ctx, model, in)
	}
	start := time.Now()
	res, err := t.ClusterBackend.Infer(ctx, model, in)
	end := time.Now()
	rt.backendNs.Add(int64(end.Sub(start)))
	t.tr.record(0, rt.route, rt.req, "serve.backend", start, end)
	return res, err
}

// served is the serving stack one set-up builds: a warm restart from the
// artifact store, a Server with two dispatch workers and default batching
// and queueing, and a Router over it as the single replica.
type served struct {
	eng    *cimflow.Engine
	srv    *cimflow.Server
	router *cimflow.Router
}

func (s *served) close() {
	s.router.Close()
	s.srv.Close()
	s.eng.Close()
}

// runServe offers open-loop Poisson traffic, a uniform tinyresnet and
// tinymobile mix, at three fixed rates through Router -> Server. Each
// request simulates only a few thousand cycles, so chip acquire and
// reset, queueing, batching and routing dominate its latency.
func runServe(b *bench) error {
	storeDir := filepath.Join(b.tmp, "store")
	if err := b.fillStore(storeDir); err != nil {
		return err
	}
	var st *served
	var inputs [2][]cimflow.Tensor
	teardown, err := b.setup(5, func(int) (func(), error) {
		store, err := cimflow.OpenArtifactStore(storeDir)
		if err != nil {
			return nil, err
		}
		eng, err := cimflow.NewEngine(cimflow.DefaultConfig(), cimflow.WithArtifactStore(store))
		if err != nil {
			store.Close()
			return nil, err
		}
		srv := cimflow.NewServer(eng, cimflow.WithWorkers(2), cimflow.WithSessionOptions(serveSession...))
		s := &served{eng: eng, srv: srv, router: cimflow.NewRouter()}
		for _, name := range b.models {
			if err := s.srv.ServeModel(name); err != nil {
				s.close()
				return nil, err
			}
		}
		var be cimflow.ClusterBackend = cimflow.NewLocalBackend("replica-0", s.srv)
		if b.tr != nil {
			be = timedBackend{be, b.tr}
		}
		if err := s.router.AddBackend(be); err != nil {
			s.close()
			return nil, err
		}
		for m, name := range b.models {
			shape, err := s.srv.InputShape(name)
			if err != nil {
				s.close()
				return nil, err
			}
			inputs[m] = b.inputs(name, shape, servePool)
			if _, err := s.router.Infer(b.ctx, "", name, inputs[m][0]); err != nil {
				s.close()
				return nil, err
			}
		}
		st = s
		return s.close, nil
	})
	if err != nil {
		return err
	}
	defer teardown()
	for _, name := range b.models {
		sess, err := st.eng.SessionFor(name, serveSession...)
		if err != nil {
			return err
		}
		if info := sess.CompileInfo(); info.Source != cimflow.CompileStore {
			b.mismatch(1, "serve %s: set-up compiled from %v, want an artifact-store load", name, info.Source)
		} else {
			b.detail("artifact.load_ms."+name, ms(info.Duration), "ms", "store load in the last serving set-up")
		}
	}

	// phase is one rate's traffic; the route and backend times are set
	// for traced requests only.
	type phase struct {
		sched              []arrival
		outs               []outcome
		hashes             []uint64
		traced             []bool
		routeMs, backendMs []float64
		batchMean          float64
	}
	var phases [3]phase
	var reqs atomic.Int64
	before := st.srv.Metrics()
	for lv, level := range levels {
		p := &phases[lv]
		rng := rand.New(rand.NewPCG(b.sub("arrivals/"+level), b.sub("mix/"+level)))
		p.sched = poissonSchedule(rng, b.rates[lv], b.seconds/3, len(b.models), servePool)
		n := len(p.sched)
		p.hashes, p.traced = make([]uint64, n), make([]bool, n)
		p.routeMs, p.backendMs = make([]float64, n), make([]float64, n)
		m0 := st.srv.Metrics()
		p.outs = openLoop(time.Now().Add(10*time.Millisecond), p.sched, func(i int, due time.Time) error {
			a := p.sched[i]
			ctx, cancel := context.WithDeadline(b.ctx, due.Add(deadline))
			defer cancel()
			var rt *reqTrace
			var root int64
			if b.tr != nil && i%2 == 1 { // traced runs alternate traced and untraced requests
				root = b.tr.id()
				rt = &reqTrace{route: b.tr.id(), req: reqs.Add(1)}
				ctx = context.WithValue(ctx, reqKey{}, rt)
			}
			rs := time.Now()
			res, err := st.router.Infer(ctx, "", b.models[a.Model], inputs[a.Model][a.Input])
			re := time.Now()
			if rt != nil {
				b.tr.record(rt.route, root, rt.req, "cluster.route", rs, re)
				b.tr.record(root, 0, rt.req, "request", due, re)
				p.traced[i] = true
				p.backendMs[i] = float64(rt.backendNs.Load()) / 1e6
				p.routeMs[i] = ms(re.Sub(rs)) - p.backendMs[i]
			}
			if err != nil {
				return err
			}
			p.hashes[i] = outputHash(res.Output)
			return nil
		})
		p.batchMean = batchMean(m0, st.srv.Metrics())
	}
	after := st.srv.Metrics()

	var meds []float64
	var traced, untraced [3][]float64
	var outs []servedOut
	for lv, level := range levels {
		p := &phases[lv]
		lat := make([]float64, len(p.outs))
		late := make([]float64, len(p.outs))
		for i, o := range p.outs {
			b.rep.Attempted++
			late[i] = ms(o.Late())
			lat[i] = ms(o.Latency())
			a := p.sched[i]
			if o.Err != nil {
				// A shed, expired or failed request misses the limit.
				lat[i] = math.Inf(1)
				b.fail("serve %s request %d (%s): %v", level, i, b.models[a.Model], o.Err)
				continue
			}
			outs = append(outs, servedOut{a.Model, a.Input, p.hashes[i]})
			if p.traced[i] {
				traced[lv] = append(traced[lv], lat[i])
			} else {
				untraced[lv] = append(untraced[lv], lat[i])
			}
		}
		if len(lat) == 0 {
			return fmt.Errorf("serve %s: no arrivals", level)
		}
		med, tl := capAtLimit(median(lat)), tailOf(lat)
		b.detail("serve."+level+".p50_ms", med, "ms", fmt.Sprintf("median of %d requests", len(lat)))
		b.detail("serve."+level+".tail_ms", capAtLimit(tl.Value), "ms", fmt.Sprintf("p%g of %d requests", tl.P, tl.N))
		b.detail("serve."+level+".offered_rps", float64(len(lat))/(b.seconds/3).Seconds(), "1/s",
			fmt.Sprintf("Poisson at %g/s", b.rates[lv]))
		b.detail("gen."+level+".late_ms", percentile(late, 99), "ms",
			fmt.Sprintf("p99 of %d sends; p50 %.3f", len(late), percentile(late, 50)))
		b.layerSet("serve."+level+".batch_mean", p.batchMean)
		meds = append(meds, med)
	}
	b.e2e("time_ms", geomean(meds))
	b.overhead(traced[:], untraced[:])
	if err := b.markPeakRSS(); err != nil {
		return err
	}
	var shed, expired int64
	for _, name := range b.models {
		shed += after.Models[name].Shed - before.Models[name].Shed
		expired += after.Models[name].Expired - before.Models[name].Expired
	}
	b.layerSet("serve.shed", float64(shed))
	b.layerSet("serve.expired", float64(expired))

	if err := b.checkServed(inputs, outs); err != nil {
		return err
	}
	if b.tr == nil {
		return nil
	}
	if err := b.probeLight(); err != nil {
		return err
	}
	// Queue time is the serving tier's share of a request beyond an
	// unloaded inference of the same model.
	svc := [2]float64{b.layer["core.service_ms.m1"], b.layer["core.service_ms.m2"]}
	for lv, level := range levels {
		p := &phases[lv]
		var queue, route []float64
		for i, tr := range p.traced {
			if tr {
				queue = append(queue, p.backendMs[i]-svc[p.sched[i].Model])
				route = append(route, p.routeMs[i])
			}
		}
		b.timing("serve."+level+".queue_ms", queue)
		b.timing("cluster."+level+".route_ms", route)
	}
	return nil
}

// servedOut identifies one served output by model, input and hash.
type servedOut struct {
	model, input int
	hash         uint64
}

// capAtLimit reports a latency that includes failed requests (+Inf) as
// the limit it missed.
func capAtLimit(v float64) float64 {
	if math.IsInf(v, 1) {
		return ms(deadline)
	}
	return v
}

// batchMean is the mean dispatched batch size between two snapshots.
func batchMean(a, b cimflow.ServerMetrics) float64 {
	var reqs, batches int64
	for name, mb := range b.Models {
		ma := a.Models[name]
		for size, n := range mb.BatchHist {
			d := n - ma.BatchHist[size]
			reqs += int64(size) * d
			batches += d
		}
	}
	if batches == 0 {
		return 0
	}
	return float64(reqs) / float64(batches)
}

// fillStore is the untimed preparation of serve-open: compile both models
// once into a fresh artifact store, as a previous server process would.
func (b *bench) fillStore(dir string) error {
	store, err := cimflow.OpenArtifactStore(dir)
	if err != nil {
		return err
	}
	eng, err := cimflow.NewEngine(cimflow.DefaultConfig(), cimflow.WithArtifactStore(store))
	if err != nil {
		store.Close()
		return err
	}
	defer eng.Close()
	for _, name := range b.models {
		if _, err := eng.SessionFor(name); err != nil {
			return err
		}
	}
	return nil
}

// checkServed compares every served output with a direct Session.Infer
// of the same input on an engine of its own, and checks each model
// against the golden reference executor.
func (b *bench) checkServed(inputs [2][]cimflow.Tensor, outs []servedOut) error {
	eng, err := cimflow.NewEngine(cimflow.DefaultConfig())
	if err != nil {
		return err
	}
	defer eng.Close()
	var want [2][servePool]uint64
	for m, name := range b.models {
		sess, err := eng.SessionFor(name)
		if err != nil {
			return err
		}
		for k, in := range inputs[m] {
			res, err := sess.Infer(b.ctx, in)
			if err != nil {
				return fmt.Errorf("direct %s: %w", name, err)
			}
			want[m][k] = outputHash(res.Output)
		}
		if n, err := sess.Validate(b.ctx, inputs[m][0]); err != nil || n != 0 {
			b.mismatch(1, "validate %s: %d mismatches (%v)", name, n, err)
		}
	}
	bad := 0
	for _, o := range outs {
		if o.hash != want[o.model][o.input] {
			bad++
		}
	}
	if bad > 0 {
		b.mismatch(bad, "%d served outputs differ from a direct Session.Infer", bad)
	}
	return nil
}
