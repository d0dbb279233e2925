package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptrace"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// loadConfig describes one open-loop traffic phase: request i is due at
// start + i/Rate whatever happened to earlier requests, so a stalled server
// builds a backlog instead of slowing the schedule down.
type loadConfig struct {
	URL     string
	Rate    float64 // requests per second
	N       int     // requests in the phase
	Senders int     // sending goroutines, at most nproc
	Conns   int     // keep-alive connections, at most nproc
	Trace   bool    // record connection-acquired and request-written times
}

// sample is one request's timeline and outcome. Latency runs from Due, not
// from when the request was actually sent, so time a request spent waiting
// behind a stall is counted (no coordinated omission).
type sample struct {
	Due, Start, Done time.Time
	gotConn, wrote   atomic.Int64 // UnixNano; set by httptrace hooks, 0 when untraced
	Status           int
	Body             []byte
	Err              error
}

func (s *sample) latency() time.Duration { return s.Done.Sub(s.Due) }

// checkLoadShape refuses more senders or connections than the machine has
// processors: the generator shares the machine with the server, and more
// senders than cores would measure the scheduler rather than the server.
func checkLoadShape(senders, conns int) error {
	nproc := runtime.NumCPU()
	if senders < 1 || senders > nproc || conns < 1 || conns > nproc {
		return fmt.Errorf("loadgen: %d senders and %d connections requested; each must be in [1, nproc=%d]", senders, conns, nproc)
	}
	return nil
}

// runLoad sends cfg.N requests on the open-loop schedule and returns their
// samples once every request has completed.
func runLoad(ctx context.Context, cfg loadConfig, body func(i int) []byte) ([]*sample, error) {
	if err := checkLoadShape(cfg.Senders, cfg.Conns); err != nil {
		return nil, err
	}
	if cfg.Rate <= 0 || cfg.N < 1 {
		return nil, fmt.Errorf("loadgen: need a positive rate and request count")
	}
	tp := &http.Transport{MaxConnsPerHost: cfg.Conns, MaxIdleConnsPerHost: cfg.Conns, DisableCompression: true}
	defer tp.CloseIdleConnections()
	client := &http.Client{Transport: tp}
	samples := make([]*sample, cfg.N)
	start := time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < cfg.Senders; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= cfg.N {
					return
				}
				s := &sample{Due: start.Add(time.Duration(float64(i) / cfg.Rate * float64(time.Second)))}
				samples[i] = s
				time.Sleep(time.Until(s.Due))
				send(ctx, client, cfg, s, body(i))
			}
		}()
	}
	wg.Wait()
	return samples, nil
}

func send(ctx context.Context, client *http.Client, cfg loadConfig, s *sample, body []byte) {
	s.Start = time.Now()
	if cfg.Trace {
		ctx = httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{
			GotConn:      func(httptrace.GotConnInfo) { s.gotConn.Store(time.Now().UnixNano()) },
			WroteRequest: func(httptrace.WroteRequestInfo) { s.wrote.Store(time.Now().UnixNano()) },
		})
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, cfg.URL, bytes.NewReader(body))
	if err != nil {
		s.Err, s.Done = err, time.Now()
		return
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		s.Err, s.Done = err, time.Now()
		return
	}
	s.Body, s.Err = io.ReadAll(resp.Body)
	s.Done = time.Now()
	resp.Body.Close()
	s.Status = resp.StatusCode
}

// loadTimes are the generator-side distributions of a phase, in ms. A
// request that failed in transport counts as +Inf latency, i.e. as missing
// every limit.
type loadTimes struct {
	latency, lag, connWait, service []float64
}

func timesOf(samples []*sample) loadTimes {
	var t loadTimes
	for _, s := range samples {
		lat := ms(s.latency())
		if s.Err != nil {
			lat = math.Inf(1)
		}
		t.latency = append(t.latency, lat)
		t.lag = append(t.lag, ms(s.Start.Sub(s.Due)))
		if c := s.gotConn.Load(); c != 0 {
			t.connWait = append(t.connWait, ms(time.Unix(0, c).Sub(s.Start)))
		}
		if w := s.wrote.Load(); w != 0 && s.Err == nil {
			t.service = append(t.service, ms(s.Done.Sub(time.Unix(0, w))))
		}
	}
	return t
}
