package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"
)

// picker yields the indexes of the requests one client sends, in order.
type picker interface {
	next() (int, bool)
}

// cycle walks order from pos in strides of step, forever or once.
type cycle struct {
	order     []int
	pos, step int
	once      bool
}

func (c *cycle) next() (int, bool) {
	if c.pos >= len(c.order) {
		if c.once {
			return 0, false
		}
		c.pos %= len(c.order)
	}
	i := c.order[c.pos]
	c.pos += c.step
	return i, true
}

// zipfPick draws request ranks Zipf(1.0): request 0 is the hottest.
type zipfPick struct {
	z *zipf
	r *rng
}

func (z *zipfPick) next() (int, bool) { return z.z.sample(z.r), true }

// sample is one completed POST.
type sample struct {
	End    time.Duration // completion time since the phase started
	Lat    time.Duration
	Req    int32
	Failed int32 // failed items
}

// loadResult is everything a load phase observed.
type loadResult struct {
	Samples   []sample
	CPU       []float64 // server CPU seconds at the phase start and at each window's end
	Attempted int       // items
	Failed    int       // items
}

// newClient returns an HTTP client that holds exactly one keep-alive
// connection.
func newClient() *http.Client {
	return &http.Client{
		Timeout: 10 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns:        1,
			MaxIdleConnsPerHost: 1,
			MaxConnsPerHost:     1,
		},
	}
}

// runLoad drives p's servers closed-loop from `clients` connections for
// dur (0 = until every picker runs dry), sampling server CPU at each of
// the `windows` window boundaries. One response in checkEvery is decoded
// and compared after its timing has stopped.
func runLoad(p *prepared, pick func(client int) picker, dur time.Duration) (*loadResult, error) {
	res := &loadResult{}
	cpu, err := p.serverCPU()
	if err != nil {
		return nil, err
	}
	res.CPU = append(res.CPU, cpu)

	perClient := make([][]sample, clients)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client := newClient()
			defer client.CloseIdleConnections()
			pk := pick(c)
			var buf bytes.Buffer
			for n := c; dur == 0 || time.Since(start) < dur; n++ {
				ri, ok := pk.next()
				if !ok {
					return
				}
				r := &p.Requests[ri]
				status := 0
				buf.Reset()
				t0 := time.Now()
				resp, err := client.Post(p.Target+r.Path, "application/json", bytes.NewReader(r.Body))
				if err == nil {
					status = resp.StatusCode
					if _, err = io.Copy(&buf, resp.Body); err != nil {
						status = 0
					}
					resp.Body.Close()
				}
				lat := time.Since(t0)
				failed := p.Answers.checkResponse(status, buf.Bytes(), r.Items, n%checkEvery == 0)
				perClient[c] = append(perClient[c], sample{End: time.Since(start), Lat: lat, Req: int32(ri), Failed: int32(failed)})
			}
		}(c)
	}
	if dur > 0 {
		for w := 1; w <= windows; w++ {
			time.Sleep(time.Until(start.Add(dur * time.Duration(w) / windows)))
			cpu, err := p.serverCPU()
			if err != nil {
				wg.Wait()
				return nil, err
			}
			res.CPU = append(res.CPU, cpu)
		}
	}
	wg.Wait()
	for _, c := range p.Servers {
		if !c.alive() {
			return nil, fmt.Errorf("%s: %s died during the run: %v\n%s", p.W.Name, c.Name, c.waitErr, c.logTail())
		}
	}
	for _, s := range perClient {
		res.Samples = append(res.Samples, s...)
	}
	for _, s := range res.Samples {
		res.Attempted += len(p.Requests[s.Req].Items)
		res.Failed += int(s.Failed)
	}
	return res, nil
}

// serverCPU sums utime+stime over every server process.
func (p *prepared) serverCPU() (float64, error) {
	total := 0.0
	for _, c := range p.Servers {
		s, err := c.cpuSeconds()
		if err != nil {
			return 0, fmt.Errorf("%s: reading CPU time of %s: %w", p.W.Name, c.Name, err)
		}
		total += s
	}
	return total, nil
}

// windowStats are one measuring window's numbers.
type windowStats struct {
	Posts    int
	QPS      float64 // correctly answered items per second
	P50, P99 float64 // ms per POST
	CPUus    float64 // server CPU µs per answered item
}

// window cuts the samples that completed in [from, to) and summarises
// them; cpu is the server CPU seconds spent in the same interval.
func window(p *prepared, samples []sample, from, to time.Duration, cpu float64) windowStats {
	var lats []float64
	answered := 0
	for _, s := range samples {
		if s.End < from || s.End >= to {
			continue
		}
		lats = append(lats, float64(s.Lat)/1e6)
		answered += len(p.Requests[s.Req].Items) - int(s.Failed)
	}
	ws := windowStats{Posts: len(lats), QPS: float64(answered) / (to - from).Seconds()}
	ws.P50, ws.P99 = percentile(lats, 0.50), percentile(lats, 0.99)
	if answered > 0 {
		ws.CPUus = cpu * 1e6 / float64(answered)
	}
	return ws
}

// percentile returns the q-quantile of v (nearest rank); v is sorted in
// place. 0 for an empty slice.
func percentile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sort.Float64s(v)
	i := int(float64(len(v))*q+0.999999) - 1
	return v[min(max(i, 0), len(v)-1)]
}

// medianSpread returns the median of v and its spread, (max-min)/median.
func medianSpread(v []float64) (med, spread float64) {
	if len(v) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	med = s[len(s)/2]
	if len(s)%2 == 0 {
		med = (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	if med != 0 {
		spread = (s[len(s)-1] - s[0]) / med
	}
	return med, spread
}
