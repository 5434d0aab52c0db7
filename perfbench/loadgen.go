package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// conn is one persistent HTTP/1.1 connection. Requests are written as
// prebuilt bytes and replies parsed with net/http, so the client adds
// little work beside the server under test.
type conn struct {
	c    net.Conn
	br   *bufio.Reader
	body bytes.Buffer
}

func dial(addr string) (*conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &conn{c: c, br: bufio.NewReaderSize(c, 64<<10)}, nil
}

func (c *conn) close() { _ = c.c.Close() }

// do sends one request and reads its reply. The returned body aliases the
// connection's buffer and is valid until the next call.
func (c *conn) do(raw []byte) (int, []byte, error) {
	if _, err := c.c.Write(raw); err != nil {
		return 0, nil, err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return 0, nil, err
	}
	c.body.Reset()
	_, err = c.body.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, c.body.Bytes(), nil
}

// arrival is one scheduled request of the open loop.
type arrival struct {
	due time.Duration // offset from the start of the loop
	req int           // pool index
}

// poissonSchedule draws arrivals at rate per second over [0, span), each
// naming a pool request in shuffled rounds.
func poissonSchedule(rate float64, span time.Duration, poolSize int, rng *rand.Rand) []arrival {
	var dues []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		d := time.Duration(t * float64(time.Second))
		if d >= span {
			break
		}
		dues = append(dues, d)
	}
	order := shuffledOrder(poolSize, len(dues), rng)
	sched := make([]arrival, len(dues))
	for i, d := range dues {
		sched[i] = arrival{due: d, req: order[i]}
	}
	return sched
}

// loadResult is what one open-loop run measured.
type loadResult struct {
	latency   []time.Duration // timed arrivals: due → reply read; failed ones count as infinitely late
	late      []time.Duration // timed arrivals: due → handed to a connection's queue
	timed     int             // arrivals due inside the timed window
	attempted int             // every arrival, warm-up included
	failed    int             // transport errors and non-200 replies
	wrong     []error         // 200 replies whose answer is wrong
	backlog   int             // arrivals due but not yet sent when the window closed
	lastDone  time.Duration   // when the last timed reply arrived, from the window start
	cpu       time.Duration   // server CPU over the timed window
	conns     int             // connections opened
	steal     time.Duration   // CPU time the host took from this machine during the loop
}

// openLoop offers sched to the server at addr over `conns` connections.
// Arrivals due before warm are sent but not timed; the timed window is
// [warm, warm+window). Each reply is compared with the verified reply of
// its pool request; a reply that differs is checked in full against the
// oracle after the run.
func openLoop(addr string, sched []arrival, warm, window time.Duration, conns int, pool []*request, verified [][]byte,
	checkFn func(*request, []byte) error, cpuOf func() (time.Duration, error), tr *tracer) (*loadResult, error) {
	res := &loadResult{attempted: len(sched)}
	n := len(sched)
	lat := make([]time.Duration, n)
	late := make([]time.Duration, n)
	okAt := make([]bool, n)
	var (
		mu       sync.Mutex
		mismatch = map[int][]byte{} // arrival → body that differs from the verified one
		taken    atomic.Int64
		startCPU time.Duration
		cpuErr   error
		opened   atomic.Int64
	)
	cs := make([]*conn, conns)
	for i := range cs {
		c, err := dial(addr)
		if err != nil {
			return nil, err
		}
		defer c.close()
		cs[i] = c
		opened.Add(1)
	}
	queue := make(chan int, n) // sized to the number of sends: the dispatcher never blocks
	steal0 := stealTime()
	var root int32
	if tr != nil {
		root = tr.begin("loadgen.window", -1)
	}
	t0 := time.Now()
	var wg sync.WaitGroup
	for _, c := range cs {
		wg.Add(1)
		go func(c *conn) {
			defer wg.Done()
			for i := range queue {
				taken.Add(1)
				a := sched[i]
				var sp int32
				if tr != nil {
					sp = tr.begin("net.request", root)
				}
				status, body, err := c.do(pool[a.req].raw)
				done := time.Since(t0)
				if tr != nil {
					tr.end(sp)
				}
				lat[i] = done - a.due
				if err != nil {
					// The connection is unusable after a transport error:
					// replace it, so one fault does not fail every later
					// request on it.
					c.close()
					if nc, derr := dial(addr); derr == nil {
						*c = *nc
						opened.Add(1)
					}
					continue
				}
				if status != http.StatusOK {
					continue
				}
				okAt[i] = true
				if !bytes.Equal(body, verified[a.req]) {
					mu.Lock()
					mismatch[i] = append([]byte(nil), body...)
					mu.Unlock()
				}
			}
		}(c)
	}

	// The dispatcher sleeps in nanosleep on its own OS thread: the Go
	// timer path wakes up to a millisecond late, which would add to every
	// latency measured from the due time.
	dispatched := 0
	func() {
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		cpuRead := false
		for i, a := range sched {
			if !cpuRead && a.due >= warm {
				sleepUntil(t0, warm)
				startCPU, cpuErr = cpuOf()
				cpuRead = true
			}
			sleepUntil(t0, a.due)
			late[i] = time.Since(t0) - a.due
			queue <- i
			dispatched++
		}
		sleepUntil(t0, warm+window)
	}()
	res.backlog = dispatched - int(taken.Load())
	close(queue)
	wg.Wait()
	endCPU, err := cpuOf()
	if cpuErr != nil || err != nil {
		return nil, fmt.Errorf("reading server CPU: %v %v", cpuErr, err)
	}
	res.cpu = endCPU - startCPU
	res.steal = stealTime() - steal0
	res.conns = int(opened.Load())
	if tr != nil {
		tr.end(root)
	}
	for i, a := range sched {
		if a.due >= warm {
			res.timed++
			res.late = append(res.late, late[i])
		}
		if !okAt[i] {
			res.failed++
			if a.due >= warm {
				res.latency = append(res.latency, math.MaxInt64)
			}
			continue
		}
		if body, ok := mismatch[i]; ok {
			if err := checkFn(pool[a.req], body); err != nil {
				res.wrong = append(res.wrong, err)
			}
		}
		if a.due >= warm {
			res.latency = append(res.latency, lat[i])
			res.lastDone = max(res.lastDone, a.due+lat[i]-warm)
		}
	}
	return res, nil
}

// sleepUntil blocks the calling OS thread until t0+at.
func sleepUntil(t0 time.Time, at time.Duration) {
	for {
		d := at - time.Since(t0)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR just loops again
	}
}

// verifyPass sends every pool request once over `conns` connections,
// checks each reply in full against the oracle, and returns the replies.
func verifyPass(addr string, pool []*request, conns int, checkFn func(*request, []byte) error) (bodies [][]byte, failed int, wrong []error, err error) {
	bodies = make([][]byte, len(pool))
	errs := make([]error, len(pool))
	bad := make([]bool, len(pool))
	cs := make([]*conn, conns)
	for i := range cs {
		c, err := dial(addr)
		if err != nil {
			return nil, 0, nil, err
		}
		defer c.close()
		cs[i] = c
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for _, c := range cs {
		wg.Add(1)
		go func(c *conn) {
			defer wg.Done()
			for {
				j := int(next.Add(1) - 1)
				if j >= len(pool) {
					return
				}
				status, body, err := c.do(pool[j].raw)
				if err != nil || status != http.StatusOK {
					bad[j] = true
					continue
				}
				bodies[j] = append([]byte(nil), body...)
				errs[j] = checkFn(pool[j], bodies[j])
			}
		}(c)
	}
	wg.Wait()
	for j := range pool {
		if bad[j] {
			failed++
		} else if errs[j] != nil {
			wrong = append(wrong, errs[j])
		}
	}
	return bodies, failed, wrong, nil
}

// rtt times n sequential GET /healthz round trips on one connection and
// returns their median.
func rtt(addr string, n int) (time.Duration, error) {
	c, err := dial(addr)
	if err != nil {
		return 0, err
	}
	defer c.close()
	req := getRequest("/healthz")
	ds := make([]time.Duration, n)
	for i := range ds {
		start := time.Now()
		status, _, err := c.do(req)
		if err != nil {
			return 0, err
		}
		if status != http.StatusOK {
			return 0, fmt.Errorf("GET /healthz answered %d", status)
		}
		ds[i] = time.Since(start)
	}
	return quantile(ds, 0.5), nil
}

// quantile returns the q-quantile of ds by the nearest-rank rule.
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
	i := int(q*float64(len(s))+0.999999) - 1
	return s[min(max(i, 0), len(s)-1)]
}
