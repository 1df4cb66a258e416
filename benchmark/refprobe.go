package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// refProbe measures the host's disk while a run uses it (gateway-mixed, and
// the rounds a traced invocation runs on real WALs): every 10 ms it replaces
// a small file the way wal.writeSnapshot does (write to a temp file, fsync,
// rename), from the benchmark's own code, and times it. The median is
// reported beside those runs' figures (bench.ref_write_p50_ms), so that a
// reader can tell the disk's mood they were measured in. 100 extra fsyncs a
// second are under 2 % of what four replicas issue.
type refProbe struct {
	dir     string
	origin  time.Time
	samples []sample
	stop    chan struct{}
	done    chan struct{}
	err     error
}

const refProbeEvery = 10 * time.Millisecond

// startRefProbe starts probing; sample times are offsets from origin.
func startRefProbe(origin time.Time) (*refProbe, error) {
	dir, err := os.MkdirTemp("", "tetrabench-wal-ref-")
	if err != nil {
		return nil, fmt.Errorf("reference probe: %w", err)
	}
	p := &refProbe{dir: dir, origin: origin, stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(p.done)
		tick := time.NewTicker(refProbeEvery)
		defer tick.Stop()
		payload := make([]byte, 256) // a five-slot PersistentState is about this size
		for {
			select {
			case <-p.stop:
				return
			case <-tick.C:
			}
			t0 := time.Now()
			if err := replaceFile(filepath.Join(p.dir, "state.bin"), payload); err != nil {
				p.err = err
				return
			}
			p.samples = append(p.samples, sample{at: t0.Sub(p.origin), dur: time.Since(t0)})
		}
	}()
	return p, nil
}

// halt stops the probe, removes its directory and returns its samples.
func (p *refProbe) halt() ([]sample, error) {
	close(p.stop)
	<-p.done
	os.RemoveAll(p.dir)
	if p.err != nil {
		return nil, fmt.Errorf("reference probe: %w", p.err)
	}
	return p.samples, nil
}

func replaceFile(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// awaitDisk holds a workload back while the disk is in one of its slow
// spells. A shared virtual disk now and then takes 10 ms and more for a
// small durable write, for up to a minute; a cluster started into that runs
// at a tenth of its speed, and one stall past the view timeout tips it into
// view changes it takes minutes to leave. It waits until ten reference
// writes have a median under 5 ms, at most for 30 s, and reports how long
// it waited.
func awaitDisk() (time.Duration, error) {
	dir, err := os.MkdirTemp("", "tetrabench-wal-ref-")
	if err != nil {
		return 0, fmt.Errorf("reference probe: %w", err)
	}
	defer os.RemoveAll(dir)
	payload := make([]byte, 256)
	start := time.Now()
	for {
		var cost []float64
		for i := 0; i < 10; i++ {
			t0 := time.Now()
			if err := replaceFile(filepath.Join(dir, "state.bin"), payload); err != nil {
				return 0, fmt.Errorf("reference probe: %w", err)
			}
			cost = append(cost, ms(time.Since(t0)))
		}
		if median(cost) < 5 || time.Since(start) > 30*time.Second {
			return time.Since(start), nil
		}
		time.Sleep(time.Second)
	}
}
