package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"

	"tetrabft"
)

// The gateway workload goes through the façade (RunScenarioWithGateway):
// the gateway backend that adapts live clusters to HTTP is the scenario
// engine's own code and cannot be constructed from outside it. The façade
// only ends a run at a slot target or a wall-clock timeout, so the run sets
// the slot target out of reach and stops by timeout; the engine's "timed
// out" error is then the expected shutdown.
const (
	gatewayWarmup = time.Second
	// gatewaySpare is how much wall clock the run keeps past the drive, for
	// set-up before the drive and the last request in flight after it.
	gatewaySpare = time.Second
	// unreachableSlots keeps the engine's Slots+3 proposal cap from binding.
	unreachableSlots = 10_000_000
	// pollLimit bounds how long client W polls for one write.
	pollLimit = 2 * time.Second
)

func gatewayScenario(seed int64, slots int64, wallClock time.Duration) tetrabft.Scenario {
	return tetrabft.Scenario{
		Name: "gateway-mixed", Protocol: tetrabft.ScenarioTetraBFTMulti, Engine: "tcp",
		Seed: seed, Delta: clusterDelta,
		Shards:   &tetrabft.ShardsSpec{Count: 2},
		Workload: tetrabft.WorkloadSpec{Slots: slots},
		Stop:     tetrabft.StopSpec{WallClockMS: wallClock.Milliseconds()},
	}
}

// kvClient is one closed-loop HTTP client on one keep-alive connection.
type kvClient struct {
	base string
	http *http.Client
}

func newKVClient(base string) *kvClient {
	return &kvClient{base: base, http: &http.Client{
		Timeout:   5 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true},
	}}
}

func (c *kvClient) close() { c.http.CloseIdleConnections() }

func (c *kvClient) do(req *http.Request) ([]byte, error) {
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s %s: %s: %s", req.Method, req.URL.Path, resp.Status, strings.TrimSpace(string(body)))
	}
	return body, nil
}

func (c *kvClient) submit(key, value string) error {
	form := url.Values{"key": {key}, "value": {value}}
	req, err := http.NewRequest(http.MethodPost, c.base+"/submit", strings.NewReader(form.Encode()))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	_, err = c.do(req)
	return err
}

func (c *kvClient) query(key string) (value string, found bool, err error) {
	req, err := http.NewRequest(http.MethodGet, c.base+"/query?key="+url.QueryEscape(key), nil)
	if err != nil {
		return "", false, err
	}
	body, err := c.do(req)
	if err != nil {
		return "", false, err
	}
	var got struct {
		Found bool   `json:"found"`
		Value string `json:"value"`
	}
	if err := json.Unmarshal(body, &got); err != nil {
		return "", false, fmt.Errorf("query %s: %w", key, err)
	}
	return got.Value, got.Found, nil
}

func (c *kvClient) status() (tetrabft.GatewayStatus, error) {
	var st tetrabft.GatewayStatus
	req, err := http.NewRequest(http.MethodGet, c.base+"/status", nil)
	if err != nil {
		return st, err
	}
	body, err := c.do(req)
	if err != nil {
		return st, err
	}
	return st, json.Unmarshal(body, &st)
}

// rejected reads the gateway's own rejected-request counter off /metrics.
func (c *kvClient) rejected() (int64, error) {
	req, err := http.NewRequest(http.MethodGet, c.base+"/metrics", nil)
	if err != nil {
		return 0, err
	}
	body, err := c.do(req)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(body), "\n") {
		var n int64
		if _, err := fmt.Sscanf(line, "gateway_rejected_total %d", &n); err == nil {
			return n, nil
		}
	}
	return 0, nil
}

// writeVisible posts a fresh key and polls it back-to-back until the
// gateway serves the value from the shard's decided log.
func (c *kvClient) writeVisible(key, value string) (ack, visible time.Duration, polls int, err error) {
	t0 := time.Now()
	if err := c.submit(key, value); err != nil {
		return 0, 0, 0, err
	}
	ack = time.Since(t0)
	for time.Since(t0) < pollLimit {
		polls++
		got, found, err := c.query(key)
		if err != nil {
			return ack, 0, polls, err
		}
		if found {
			if got != value {
				return ack, 0, polls, fmt.Errorf("%w: key %s reads %q, written %q", errWrongValue, key, got, value)
			}
			return ack, time.Since(t0), polls, nil
		}
	}
	return ack, 0, polls, fmt.Errorf("key %s not visible %v after its POST", key, pollLimit)
}

// gwRun is the raw outcome of one gateway run.
type gwRun struct {
	setup time.Duration // RunScenarioWithGateway call → first confirmed write
	// Client W, measured window only: POST start → first read returning
	// the value, the POST's own round trip, and polls issued per write.
	writes   []sample
	acks     []time.Duration
	polls    int
	writeErr []error
	// Client R, measured window only: GET /query round trips.
	reads    []sample
	readErrs []error
	ref      []sample // reference write cost over the measured window
	proc     procDelta
	window   time.Duration
	// From /status and /metrics around the measured window: slots finalized
	// per shard, anchor epochs, requests the gateway refused.
	slotsPerShard float64
	anchorEpochs  int64
	rejected      int64
}

// readThink is client R's pause between reads. Back-to-back, the two
// clients' queries (each replays the whole chain on a replica's event loop)
// saturate both cores and the deployment tips into a state where the
// clusters barely advance.
const readThink = 5 * time.Millisecond

var (
	errDriveNotRun = errors.New("gateway never became ready")
	// errWrongValue marks a read that returned something other than what
	// was written: a correctness violation, not a failed operation.
	errWrongValue = errors.New("wrong value read")
)

// gatewaySetup runs a short deployment to completion and reports how long
// it took from the call to the first confirmed write.
func gatewaySetup(seed int64) (time.Duration, error) {
	t0 := time.Now()
	var setup time.Duration
	driveErr := errDriveNotRun
	// 40 slots: far enough for a write to confirm before the leaders stop
	// proposing, near enough that the run ends by itself within a second.
	_, err := tetrabft.RunScenarioWithGateway(gatewayScenario(seed, 40, 20*time.Second), func(base string) {
		c := newKVClient(base)
		defer c.close()
		_, _, _, driveErr = c.writeVisible("setup-key", "setup-value")
		setup = time.Since(t0)
	})
	if err != nil {
		return setup, fmt.Errorf("gateway set-up run: %w", err)
	}
	return setup, driveErr
}

// runGateway runs the deployment for warm-up + measure and drives it with
// two closed-loop clients.
func runGateway(seed int64, measure time.Duration) (*gwRun, error) {
	r := &gwRun{window: measure}
	driveErr := errDriveNotRun
	var drive sync.WaitGroup
	t0 := time.Now()
	_, err := tetrabft.RunScenarioWithGateway(
		gatewayScenario(seed, unreachableSlots, gatewayWarmup+measure+gatewaySpare),
		func(base string) {
			drive.Add(1)
			go func() {
				defer drive.Done()
				driveErr = r.drive(base, seed, t0, measure)
			}()
		})
	drive.Wait()
	if err == nil {
		return nil, fmt.Errorf("gateway run ended before its wall-clock stop")
	}
	if !strings.Contains(err.Error(), "timed out before all shards finalized") {
		return nil, fmt.Errorf("gateway run: %w", err)
	}
	if driveErr != nil {
		return nil, fmt.Errorf("gateway drive: %w", driveErr)
	}
	for _, e := range append(r.readErrs, r.writeErr...) {
		if errors.Is(e, errWrongValue) {
			return nil, fmt.Errorf("gateway-mixed: correctness: %w", e)
		}
	}
	return r, nil
}

func (r *gwRun) drive(base string, seed int64, t0 time.Time, measure time.Duration) error {
	w, rd := newKVClient(base), newKVClient(base)
	defer w.close()
	defer rd.close()
	rng := rand.New(rand.NewSource(seed))

	// Set-up ends with the first confirmed write; it also seeds the set of
	// keys client R may read.
	var mu sync.Mutex
	confirmed := []string{"w-000000"}
	values := map[string]string{"w-000000": fmt.Sprintf("%016x", rng.Uint64())}
	if _, _, _, err := w.writeVisible("w-000000", values["w-000000"]); err != nil {
		return err
	}
	r.setup = time.Since(t0)

	start := time.Now()
	measureFrom, end := start.Add(gatewayWarmup), start.Add(gatewayWarmup+measure)
	rp, err := startRefProbe(measureFrom)
	if err != nil {
		return err
	}
	defer func() { r.ref, _ = rp.halt() }()
	var st0 tetrabft.GatewayStatus
	readerSeed := rng.Int63()
	var clients sync.WaitGroup
	clients.Add(1)
	go func() { // client R
		defer clients.Done()
		rr := rand.New(rand.NewSource(readerSeed))
		for time.Now().Before(end) {
			mu.Lock()
			key := confirmed[rr.Intn(len(confirmed))]
			want := values[key]
			mu.Unlock()
			time.Sleep(readThink)
			at := time.Now()
			got, found, err := rd.query(key)
			d := time.Since(at)
			if at.Before(measureFrom) {
				continue
			}
			switch {
			case err != nil:
				r.readErrs = append(r.readErrs, err)
			case !found || got != want:
				r.readErrs = append(r.readErrs, fmt.Errorf("%w: confirmed key %s reads %q (found=%v), written %q", errWrongValue, key, got, found, want))
			default:
				r.reads = append(r.reads, sample{at: at.Sub(measureFrom), dur: d})
			}
		}
	}()

	// Client W runs on this goroutine; it also brackets the measured window.
	var pw *procWindow
	for i := 1; time.Now().Before(end); i++ {
		at := time.Now()
		if pw == nil && !at.Before(measureFrom) {
			var err error
			if st0, err = w.status(); err != nil {
				return err
			}
			at = time.Now()
			pw = startProcWindow()
		}
		key, value := fmt.Sprintf("w-%06d", i), fmt.Sprintf("%016x", rng.Uint64())
		ack, visible, polls, err := w.writeVisible(key, value)
		if err == nil {
			mu.Lock()
			confirmed = append(confirmed, key)
			values[key] = value
			mu.Unlock()
		}
		if pw == nil {
			if err != nil {
				return fmt.Errorf("warm-up write: %w", err)
			}
			continue
		}
		if err != nil {
			r.writeErr = append(r.writeErr, err)
			continue
		}
		r.writes = append(r.writes, sample{at: at.Sub(measureFrom), dur: visible})
		r.acks = append(r.acks, ack)
		r.polls += polls
	}
	clients.Wait()
	if pw == nil {
		return fmt.Errorf("the drive never reached its measured window")
	}
	r.proc = pw.stop()
	st1, err := w.status()
	if err != nil {
		return err
	}
	if len(st1.Shards) == 0 || len(st1.Shards) != len(st0.Shards) {
		return fmt.Errorf("/status lists %d shards, then %d", len(st0.Shards), len(st1.Shards))
	}
	for i := range st1.Shards {
		r.slotsPerShard += float64(st1.Shards[i].Finalized-st0.Shards[i].Finalized) / float64(len(st1.Shards))
	}
	r.anchorEpochs = st1.AnchorEpochs - st0.AnchorEpochs
	if r.rejected, err = w.rejected(); err != nil {
		return err
	}
	return nil
}
