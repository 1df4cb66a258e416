package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Times are offsets from
// the tracer's epoch. parent indexes the causing span in the same track
// (-1 = none); id is the transaction sequence number or slot the span
// belongs to, so the spans of one request share an identifier.
type span struct {
	name   string
	layer  string
	start  time.Duration
	end    time.Duration
	parent int
	id     int64
}

func (s span) dur() time.Duration { return s.end - s.start }

// track is a span list owned by one goroutine (a replica's event loop, the
// generator, a probe), so recording takes no lock. open is the innermost
// unfinished span: a span begun while another is open becomes its child.
type track struct {
	name  string
	epoch time.Time
	spans []span
	open  int
}

// begin opens a span and returns its index for end.
func (t *track) begin(name, layer string, id int64) int {
	t.spans = append(t.spans, span{name: name, layer: layer, start: time.Since(t.epoch), parent: t.open, id: id})
	t.open = len(t.spans) - 1
	return t.open
}

// end closes the span opened by begin and returns its duration.
func (t *track) end(idx int) time.Duration {
	s := &t.spans[idx]
	s.end = time.Since(t.epoch)
	t.open = s.parent
	return s.dur()
}

// add records an already-measured interval with no parent.
func (t *track) add(name, layer string, start, end time.Duration, id int64) {
	t.spans = append(t.spans, span{name: name, layer: layer, start: start, end: end, parent: -1, id: id})
}

// tracer owns the tracks of one traced run. Spans stay in memory until the
// run ends.
type tracer struct {
	epoch  time.Time
	mu     sync.Mutex
	tracks []*track
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (tr *tracer) newTrack(name string) *track {
	t := &track{name: name, epoch: tr.epoch, open: -1, spans: make([]span, 0, 1<<14)}
	tr.mu.Lock()
	tr.tracks = append(tr.tracks, t)
	tr.mu.Unlock()
	return t
}

// selfTimes returns, for every span of a track, its duration minus the part
// of its interval that its direct children cover (overlapping children are
// merged, and a child is clipped to its parent).
func selfTimes(spans []span) []time.Duration {
	type iv struct{ a, b time.Duration }
	kids := make(map[int][]iv)
	for _, s := range spans {
		if s.parent >= 0 {
			p := spans[s.parent]
			a, b := s.start, s.end
			if a < p.start {
				a = p.start
			}
			if b > p.end {
				b = p.end
			}
			if b > a {
				kids[s.parent] = append(kids[s.parent], iv{a, b})
			}
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		out[i] = s.dur()
		ivs := kids[i]
		if len(ivs) == 0 {
			continue
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
		var covered time.Duration
		cur := ivs[0]
		for _, v := range ivs[1:] {
			if v.a <= cur.b {
				if v.b > cur.b {
					cur.b = v.b
				}
				continue
			}
			covered += cur.b - cur.a
			cur = v
		}
		covered += cur.b - cur.a
		out[i] -= covered
	}
	return out
}

// spanFold is what a traced run's spans add up to: per span name the
// durations, per layer the self time.
type spanFold struct {
	byName    map[string][]time.Duration
	layerSelf map[string]time.Duration
	total     int
}

func (tr *tracer) fold() spanFold {
	f := spanFold{byName: map[string][]time.Duration{}, layerSelf: map[string]time.Duration{}}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	for _, t := range tr.tracks {
		self := selfTimes(t.spans)
		for i, s := range t.spans {
			f.byName[s.name] = append(f.byName[s.name], s.dur())
			f.layerSelf[s.layer] += self[i]
			f.total++
		}
	}
	return f
}

func (f spanFold) sum(name string) time.Duration {
	var d time.Duration
	for _, x := range f.byName[name] {
		d += x
	}
	return d
}

// maxTraceFileSpans bounds the span file: a saturated run records over a
// million spans, and a viewer needs the shape, not every one of them.
const maxTraceFileSpans = 300000

// writeChromeTrace writes the spans as Chrome / Perfetto trace-event JSON
// (complete "X" events, one thread per track). Past maxTraceFileSpans the
// remaining spans are dropped from the file (never from the metrics) and
// the count written is returned.
func (tr *tracer) writeChromeTrace(path string) (written, total int, err error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, 0, fmt.Errorf("trace file: %w", err)
	}
	w := bufio.NewWriter(f)
	fmt.Fprint(w, `{"displayTimeUnit":"ms","traceEvents":[`)
	tr.mu.Lock()
	for tid, t := range tr.tracks {
		if tid > 0 {
			fmt.Fprint(w, ",")
		}
		fmt.Fprintf(w, `{"name":"thread_name","ph":"M","pid":1,"tid":%d,"args":{"name":%q}}`, tid, t.name)
		for i, s := range t.spans {
			total++
			if written >= maxTraceFileSpans {
				continue
			}
			written++
			fmt.Fprintf(w, `,{"name":%q,"cat":%q,"ph":"X","pid":1,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"span":%d,"parent":%d,"id":%d}}`,
				s.name, s.layer, tid, us(s.start), us(s.dur()), i, s.parent, s.id)
		}
	}
	tr.mu.Unlock()
	fmt.Fprint(w, "]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return written, total, fmt.Errorf("trace file: %w", err)
	}
	if err := f.Close(); err != nil {
		return written, total, fmt.Errorf("trace file: %w", err)
	}
	return written, total, nil
}
