package main

import "time"

// pacer holds an open-loop sender to its schedule and accounts for how
// late the generator itself ran. A sender that is free before its next due
// time sleeps until it, and the time it overshoots is generator lag. A
// sender still busy with an earlier request when the next one falls due
// sends at once; that request waited on the system, not on the generator,
// so it counts as behind rather than lag. Latency is timed from the due
// time either way.
type pacer struct {
	now   func() time.Time
	sleep func(time.Duration) error

	lag    samples // ms past the due time, for waits that started early
	behind int     // due times already past when the sender got free

	close func()
}

// newPacer paces on a timerfd (timerfd_linux.go): time.Sleep below a
// millisecond oversleeps by up to one.
func newPacer() (*pacer, error) {
	t, err := newTimerFD()
	if err != nil {
		return nil, err
	}
	return &pacer{now: time.Now, sleep: t.sleep, close: t.close}, nil
}

// waitUntil blocks until due and returns the time sending starts.
func (p *pacer) waitUntil(due time.Time) (time.Time, error) {
	t := p.now()
	if !t.Before(due) {
		p.behind++
		return t, nil
	}
	if err := p.sleep(due.Sub(t)); err != nil {
		return t, err
	}
	t = p.now()
	p.lag.addDur(t.Sub(due))
	return t, nil
}
