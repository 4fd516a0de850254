package main

import "time"

// Each workload's traced run: its own pass untraced, with spans around the
// calls into the system, and untraced again, for the tracing overhead;
// then the layer suite. A pass returns its work rate.

func tracedHTTP(r *run) error {
	env, err := newHTTPEnv(genTraffic(r.seed))
	if err != nil {
		return err
	}
	defer env.close()
	env.dropFleets()
	warm, fails := env.closedLoopHTTP(500*time.Millisecond, 0, codecJSON, nil)
	r.accountClosed(int64(warm.n), fails)
	dur := r.seconds / 5
	in, err := tracedWorkload(r, func(t *tracer) (float64, error) {
		lat, fails := env.closedLoopHTTP(dur, 0, codecJSON, t)
		r.accountClosed(int64(lat.n), fails)
		return float64(lat.n) / dur.Seconds(), nil
	})
	if err != nil {
		return err
	}
	return layerSuite(r, in)
}

func tracedEmbedded(r *run) error {
	env, err := newServingEnv(genTraffic(r.seed))
	if err != nil {
		return err
	}
	defer env.close()
	env.closedLoop(500*time.Millisecond, false, env.recommend, nil, "")
	dur := r.seconds / 5
	in, err := tracedWorkload(r, func(t *tracer) (float64, error) {
		lr := env.closedLoop(dur, true, env.recommend, t, "service.recommend")
		r.account(lr)
		return float64(lr.calls) / lr.elapsed.Seconds(), nil
	})
	if err != nil {
		return err
	}
	return layerSuite(r, in)
}

func tracedBatch(r *run) error {
	env, err := newBatchEnv(r.seed)
	if err != nil {
		return err
	}
	var days []dayResult
	var written, read int64
	in, err := tracedWorkload(r, func(t *tracer) (float64, error) {
		start := time.Now()
		d, svc, err := env.week(r, t)
		if err != nil {
			return 0, err
		}
		days = d
		written, read = svc.StorageStats()
		svc.Close()
		return float64(len(d)*len(env.fleet)) / time.Since(start).Seconds(), nil
	})
	if err != nil {
		return err
	}
	in.days, in.dfsW, in.dfsR = days, written, read
	return layerSuite(r, in)
}

func tracedRolling(r *run) error {
	env, err := newRollingEnv(r.seed)
	if err != nil {
		return err
	}
	var last drainResult
	in, err := tracedWorkload(r, func(t *tracer) (float64, error) {
		rep, wall, err := env.drain(r, t)
		if err != nil {
			return 0, err
		}
		last = drainResult{rep, wall}
		return float64(rep.Publishes) / wall.Seconds(), nil
	})
	if err != nil {
		return err
	}
	in.drain, in.wall = &last.rep, last.wall
	return layerSuite(r, in)
}
