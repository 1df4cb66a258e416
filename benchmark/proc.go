package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// cpuTimes is the process's accumulated CPU time (getrusage).
type cpuTimes struct{ user, sys time.Duration }

func (c cpuTimes) total() time.Duration { return c.user + c.sys }
func (c cpuTimes) sub(o cpuTimes) cpuTimes {
	return cpuTimes{user: c.user - o.user, sys: c.sys - o.sys}
}

func readCPU() cpuTimes {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return cpuTimes{}
	}
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return cpuTimes{user: tv(ru.Utime), sys: tv(ru.Stime)}
}

// peakRSSMB is the process's resident-set high-water mark in MiB. Linux
// reports ru_maxrss in KiB. Each workload runs in its own process, so the
// mark belongs to that workload alone.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// fsType names the filesystem holding dir (the WAL's fsync cost depends on
// it: tmpfs syncs are free, ext4 ones are not).
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794C7630:
		return "overlayfs"
	case 0x6969:
		return "nfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}

// hostShape describes the machine a result was measured on.
type hostShape struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	FSType     string `json:"fs_type"`
	TempDir    string `json:"temp_dir"`
}

func readHost() hostShape {
	return hostShape{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		FSType:     fsType(os.TempDir()),
		TempDir:    os.TempDir(),
	}
}

// procWindow measures whole-process counters over one measured window:
// CPU time, heap allocations, GC CPU and the goroutine high-water mark
// (sampled every 10 ms by one goroutine that stop joins).
type procWindow struct {
	cpu0    cpuTimes
	mem0    runtime.MemStats
	gc0     float64
	tot0    float64
	t0      time.Time
	maxGo   atomic.Int64
	stopCh  chan struct{}
	stopped sync.WaitGroup
}

// procDelta is what a procWindow saw.
type procDelta struct {
	wall          time.Duration
	cpu           cpuTimes
	mallocs       uint64
	allocBytes    uint64
	gcCPUShare    float64
	goroutinesMax int
}

func gcCPUSeconds() (gc, total float64) {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindFloat64 {
		gc = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		total = s[1].Value.Float64()
	}
	return gc, total
}

func startProcWindow() *procWindow {
	w := &procWindow{stopCh: make(chan struct{})}
	runtime.ReadMemStats(&w.mem0)
	w.gc0, w.tot0 = gcCPUSeconds()
	w.maxGo.Store(int64(runtime.NumGoroutine()))
	w.stopped.Add(1)
	go func() {
		defer w.stopped.Done()
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-w.stopCh:
				return
			case <-tick.C:
				if n := int64(runtime.NumGoroutine()); n > w.maxGo.Load() {
					w.maxGo.Store(n)
				}
			}
		}
	}()
	w.cpu0 = readCPU()
	w.t0 = time.Now()
	return w
}

func (w *procWindow) stop() procDelta {
	d := procDelta{wall: time.Since(w.t0), cpu: readCPU().sub(w.cpu0)}
	close(w.stopCh)
	w.stopped.Wait()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	d.mallocs = m.Mallocs - w.mem0.Mallocs
	d.allocBytes = m.TotalAlloc - w.mem0.TotalAlloc
	gc, tot := gcCPUSeconds()
	if tot > w.tot0 {
		d.gcCPUShare = (gc - w.gc0) / (tot - w.tot0)
	}
	d.goroutinesMax = int(w.maxGo.Load())
	return d
}

// settle waits for the goroutine count to return to baseline (every
// runtime, gateway and client the workload started must be gone) and
// returns an error naming the leak otherwise, then collects garbage so the
// next phase starts from a quiet heap.
func settle(baseline int) error {
	deadline := time.Now().Add(3 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			return fmt.Errorf("goroutine leak: %d running, baseline %d", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(5 * time.Millisecond)
	}
	runtime.GC()
	time.Sleep(50 * time.Millisecond)
	return nil
}
