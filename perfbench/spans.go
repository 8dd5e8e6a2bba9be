package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"
)

// maxSpansPerLane bounds the spans one goroutine keeps for the dump; the
// per-name and per-layer aggregates keep counting past it, so the ledger
// stays exact on a multi-million-request stream.
const maxSpansPerLane = 100_000

// span is one recorded call of the benchmark into a layer.
type span struct {
	ID     uint32 `json:"id"`
	Parent uint32 `json:"parent"`
	Lane   int    `json:"lane"`
	Req    uint64 `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// agg sums the spans of one name.
type agg struct {
	n     int64
	total int64 // ns
}

// recorder collects the spans the benchmark records around its own calls
// into each layer: name, start, end, parent and request id, kept in memory
// and written when the run ends. Each goroutine records into its own lane,
// so the hot path takes no lock; lanes merge into the recorder when they
// close.
type recorder struct {
	epoch time.Time

	mu      sync.Mutex
	lanes   int
	spans   []span
	dropped int64
	byName  map[string]*agg
	self    map[string]map[string]int64 // root -> layer -> self ns
	wall    map[string]int64            // root -> summed lane wall ns
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), byName: map[string]*agg{},
		self: map[string]map[string]int64{}, wall: map[string]int64{}}
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// openSpan is a span still on a lane's stack; child accumulates the time
// its finished children covered, which is not its own (self) time.
type openSpan struct {
	id    uint32
	name  string
	start int64
	child int64
}

// lane is one goroutine's span stack. A nil lane records nothing, so
// untraced runs pay one nil check per call site.
type lane struct {
	r      *recorder
	id     int
	root   string
	nextID uint32
	req    uint64
	stack  []openSpan
	spans  []span
	drop   int64
	byName map[string]*agg
	self   map[string]int64
	wall   int64
}

// lane opens a goroutine lane whose root span is named root; every span
// the lane records nests under it, and the root's self time is the part
// of the lane's wall time that no layer span covers.
func (r *recorder) lane(root string) *lane {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	r.lanes++
	id := r.lanes
	r.mu.Unlock()
	l := &lane{r: r, id: id, root: root, byName: map[string]*agg{}, self: map[string]int64{}}
	l.begin(root)
	return l
}

func (l *lane) begin(name string) {
	if l == nil {
		return
	}
	l.nextID++
	l.stack = append(l.stack, openSpan{id: uint32(l.id)<<24 | l.nextID, name: name, start: l.r.now()})
}

func (l *lane) end() {
	if l == nil {
		return
	}
	end := l.r.now()
	top := l.stack[len(l.stack)-1]
	l.stack = l.stack[:len(l.stack)-1]
	d := end - top.start
	var parent uint32
	if n := len(l.stack); n > 0 {
		l.stack[n-1].child += d
		parent = l.stack[n-1].id
	} else {
		l.wall += d
	}
	a := l.byName[top.name]
	if a == nil {
		a = &agg{}
		l.byName[top.name] = a
	}
	a.n++
	a.total += d
	l.self[layerOf(top.name)] += d - top.child
	if len(l.spans) < maxSpansPerLane {
		l.spans = append(l.spans, span{ID: top.id, Parent: parent, Lane: l.id, Req: l.req,
			Name: top.name, Start: top.start, End: end})
	} else {
		l.drop++
	}
}

// close ends the root span and merges the lane into its recorder.
func (l *lane) close() {
	if l == nil {
		return
	}
	for len(l.stack) > 0 {
		l.end()
	}
	r := l.r
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, l.spans...)
	r.dropped += l.drop
	for k, v := range l.byName {
		a := r.byName[k]
		if a == nil {
			a = &agg{}
			r.byName[k] = a
		}
		a.n += v.n
		a.total += v.total
	}
	self := r.self[l.root]
	if self == nil {
		self = map[string]int64{}
		r.self[l.root] = self
	}
	for k, v := range l.self {
		self[k] += v
	}
	r.wall[l.root] += l.wall
}

// layerOf maps a span name ("vm.call") to its layer ("vm").
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// meanMS returns the mean duration of the spans named name, in ms.
func (r *recorder) meanMS(name string) float64 {
	a := r.byName[name]
	if a == nil || a.n == 0 {
		return 0
	}
	return float64(a.total) / float64(a.n) / 1e6
}

// selfPct returns layer's self time as a percentage of the summed wall
// time of the lanes rooted at root. The "bench" layer is the benchmark's
// own root spans, so its share is the time no layer span covers.
func (r *recorder) selfPct(root, layer string) float64 {
	if r.wall[root] == 0 {
		return 0
	}
	return 100 * float64(r.self[root][layer]) / float64(r.wall[root])
}

// write dumps the kept spans as JSON lines.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if r.dropped > 0 {
		fmt.Fprintf(w, "{\"dropped_spans\":%d}\n", r.dropped)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
