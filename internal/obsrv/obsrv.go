// Package obsrv is the read-only live introspection server: it serves
// the telemetry snapshots a running simulation (or campaign) publishes
// right after a tick phase over plain net/http — current status,
// Prometheus-style metrics, the sampled time series, the flight-
// recorder trace tail, and net/http/pprof.
//
// The server never touches simulator state: sim.TelemetrySnapshot is a
// value copy plus immutable views, handed over on the simulation
// goroutine and swapped in behind an atomic pointer. Handlers only ever
// read the snapshot they loaded, so serving is race-free while the
// simulation keeps running, and attaching a server cannot change
// simulated cycle counts.
package obsrv

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"gpues/internal/obs"
	"gpues/internal/sim"
)

// ValidateAddr checks a -http listen address up front: it must be a
// host:port (the host may be empty, the port a name or number).
func ValidateAddr(addr string) error {
	if addr == "" {
		return fmt.Errorf("obsrv: empty listen address")
	}
	if _, _, err := net.SplitHostPort(addr); err != nil {
		return fmt.Errorf("obsrv: listen address %q is not host:port: %w", addr, err)
	}
	return nil
}

// published is one immutable generation of served state.
type published struct {
	snap sim.TelemetrySnapshot
	wall time.Time
	// rate is simulated cycles per wall second, measured between this
	// publish and the previous one (0 on the first).
	rate float64
}

// Campaign is the experiment-campaign progress shown on /status.
type Campaign struct {
	Done  int    `json:"done"`
	Total int    `json:"total"`
	Last  string `json:"last,omitempty"`
}

// Server is the live introspection HTTP server. It implements
// sim.TelemetrySink; attach it with Simulator.SetTelemetrySink (or the
// CLI -http flags) and Start it before the run.
type Server struct {
	addr  string
	ln    net.Listener
	srv   *http.Server
	start time.Time

	cur  atomic.Pointer[published]
	camp atomic.Pointer[Campaign]
	fab  atomic.Pointer[obs.Snapshot]

	// lastCycle/lastWall feed the wall-rate estimate; only the publish
	// path (one goroutine) touches them.
	lastCycle int64
	lastWall  time.Time
}

// New builds a server for the given listen address (host:port; use
// ":0" for an ephemeral port).
func New(addr string) *Server {
	s := &Server{addr: addr, start: time.Now()}
	mux := http.NewServeMux()
	mux.HandleFunc("/status", s.handleStatus)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/series", s.handleSeries)
	mux.HandleFunc("/trace/last", s.handleTraceLast)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s.srv = &http.Server{Handler: mux}
	return s
}

// Start binds the listener and serves in a background goroutine. It
// returns the bound address (resolving a ":0" port).
func (s *Server) Start() (string, error) {
	ln, err := net.Listen("tcp", s.addr)
	if err != nil {
		return "", err
	}
	s.ln = ln
	go s.srv.Serve(ln) //nolint:errcheck // Serve returns on Close
	return ln.Addr().String(), nil
}

// Addr returns the bound address ("" before Start).
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Close stops the listener and open connections.
func (s *Server) Close() error { return s.srv.Close() }

// PublishTelemetry installs a new snapshot generation. Called from the
// simulation goroutine (sim.TelemetrySink); never concurrently with
// itself.
func (s *Server) PublishTelemetry(snap sim.TelemetrySnapshot) {
	now := time.Now()
	p := &published{snap: snap, wall: now}
	if !s.lastWall.IsZero() {
		if dt := now.Sub(s.lastWall).Seconds(); dt > 0 {
			p.rate = float64(snap.Cycle-s.lastCycle) / dt
		}
	}
	s.lastCycle, s.lastWall = snap.Cycle, now
	s.cur.Store(p)
}

// SetCampaign publishes campaign progress (done/total runs plus the
// latest progress line). Safe to call from any goroutine.
func (s *Server) SetCampaign(done, total int, last string) {
	s.camp.Store(&Campaign{Done: done, Total: total, Last: last})
}

// PublishFabric installs a job-fabric metrics snapshot (simserv
// coordinator: queue depth, retries, lease expiries, cache hits);
// /metrics renders it alongside any simulator telemetry. Snapshots
// are immutable values, so the same swap-behind-a-pointer discipline
// applies. Safe to call from any goroutine, but callers must not
// mutate snap after publishing.
func (s *Server) PublishFabric(snap obs.Snapshot) {
	s.fab.Store(&snap)
}

// status is the /status JSON document.
type status struct {
	Published     bool      `json:"published"`
	Cycle         int64     `json:"cycle"`
	Finished      bool      `json:"finished"`
	WallRateCPS   float64   `json:"wall_rate_cps"`
	ActiveSMs     int       `json:"active_sms"`
	TotalSMs      int       `json:"total_sms"`
	BlocksDone    int       `json:"blocks_done"`
	BlocksTotal   int       `json:"blocks_total"`
	Committed     int64     `json:"committed"`
	Watchdog      *watchdog `json:"watchdog,omitempty"`
	Samples       int       `json:"samples"`
	SampleEvery   int64     `json:"sample_every,omitempty"`
	TraceEvents   int       `json:"trace_events"`
	Campaign      *Campaign `json:"campaign,omitempty"`
	UptimeSeconds float64   `json:"uptime_seconds"`
}

type watchdog struct {
	Window        int64 `json:"window"`
	SinceProgress int64 `json:"since_progress"`
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	st := status{UptimeSeconds: time.Since(s.start).Seconds()}
	if p := s.cur.Load(); p != nil {
		st.Published = true
		st.Cycle = p.snap.Cycle
		st.Finished = p.snap.Finished
		st.WallRateCPS = p.rate
		st.ActiveSMs = p.snap.ActiveSMs
		st.TotalSMs = p.snap.TotalSMs
		st.BlocksDone = p.snap.BlocksDone
		st.BlocksTotal = p.snap.BlocksTotal
		st.Committed = p.snap.Committed
		st.Samples = p.snap.Series.N
		st.SampleEvery = p.snap.Series.Every
		st.TraceEvents = len(p.snap.Trace)
		if p.snap.WatchdogWindow > 0 {
			st.Watchdog = &watchdog{Window: p.snap.WatchdogWindow, SinceProgress: p.snap.SinceProgress}
		}
	}
	st.Campaign = s.camp.Load()
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(&st) //nolint:errcheck // client went away
}

// promName rewrites a metric name into the Prometheus exposition
// grammar: gpues_<name> with [.-] folded to underscores.
func promName(name string) string {
	var b strings.Builder
	b.WriteString("gpues_")
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	p := s.cur.Load()
	fab := s.fab.Load()
	if p == nil && fab == nil {
		return // no data yet: an empty exposition is valid
	}
	if p != nil {
		fmt.Fprintf(w, "# TYPE gpues_cycle counter\ngpues_cycle %d\n", p.snap.Cycle)
		writeSnapshot(w, p.snap.Metrics)
	}
	if fab != nil {
		writeSnapshot(w, *fab)
	}
}

// writeSnapshot renders one obs.Snapshot in the Prometheus exposition
// format: counters, gauges, then histograms as summaries.
func writeSnapshot(w http.ResponseWriter, m obs.Snapshot) {
	writeGroup := func(vals map[string]int64, typ string) {
		names := make([]string, 0, len(vals))
		for n := range vals {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			pn := promName(n)
			fmt.Fprintf(w, "# TYPE %s %s\n%s %d\n", pn, typ, pn, vals[n])
		}
	}
	writeGroup(m.Counters, "counter")
	writeGroup(m.Gauges, "gauge")
	names := make([]string, 0, len(m.Histograms))
	for n := range m.Histograms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		h := m.Histograms[n]
		pn := promName(n)
		fmt.Fprintf(w, "# TYPE %s summary\n", pn)
		fmt.Fprintf(w, "%s{quantile=\"0.5\"} %d\n", pn, h.P50)
		fmt.Fprintf(w, "%s{quantile=\"0.9\"} %d\n", pn, h.P90)
		fmt.Fprintf(w, "%s{quantile=\"0.99\"} %d\n", pn, h.P99)
		fmt.Fprintf(w, "%s_sum %d\n%s_count %d\n", pn, h.Sum, pn, h.Count)
	}
}

func (s *Server) handleSeries(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	var v obs.SeriesView
	if p := s.cur.Load(); p != nil {
		v = p.snap.Series
	}
	v.WriteNDJSON(w) //nolint:errcheck // client went away
}

func (s *Server) handleTraceLast(w http.ResponseWriter, r *http.Request) {
	n := 16
	if q := r.URL.Query().Get("n"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v < 1 {
			http.Error(w, fmt.Sprintf("bad n %q", q), http.StatusBadRequest)
			return
		}
		n = v
	}
	var events []obs.Event
	if p := s.cur.Load(); p != nil {
		events = p.snap.Trace
		if len(events) > n {
			events = events[len(events)-n:]
		}
	}
	type traceEvent struct {
		Cycle int64  `json:"cycle"`
		Seq   uint64 `json:"seq"`
		SM    int16  `json:"sm"`
		Warp  int32  `json:"warp"`
		Kind  string `json:"kind"`
		A     uint64 `json:"a"`
		B     uint64 `json:"b"`
	}
	out := make([]traceEvent, 0, len(events))
	for _, e := range events {
		out = append(out, traceEvent{Cycle: e.Cycle, Seq: e.Seq, SM: e.SM, Warp: e.Warp,
			Kind: e.Kind.String(), A: e.A, B: e.B})
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(out) //nolint:errcheck // client went away
}
