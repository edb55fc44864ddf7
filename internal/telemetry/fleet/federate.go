package fleet

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mips/internal/trace"
)

// Federation turns one mipsd into a coordinator: it scrapes /metrics
// and fleet flamegraphs from peer workers and merges them with the
// local view, so a fleet of daemons presents one pane of glass. Peer
// series keep their names and gain a worker="host:port" label; peers
// that fail to scrape are reported as fleet_peer_up 0 instead of
// failing the whole render.
type Federation struct {
	mu    sync.Mutex
	peers []string // normalized base URLs, insertion order

	client     *http.Client
	scrapeErrs atomic.Uint64
}

// DefaultScrapeTimeout bounds one peer scrape.
const DefaultScrapeTimeout = 3 * time.Second

// NewFederation returns an empty federation whose peer scrapes time
// out after the given duration (DefaultScrapeTimeout if <= 0).
func NewFederation(timeout time.Duration) *Federation {
	if timeout <= 0 {
		timeout = DefaultScrapeTimeout
	}
	return &Federation{client: &http.Client{Timeout: timeout}}
}

// NormalizePeer validates a peer reference and returns its base URL
// (scheme://host — any path is dropped). A bare "host:port" is
// promoted to "http://host:port".
func NormalizePeer(raw string) (string, error) {
	raw = strings.TrimSpace(raw)
	if raw == "" {
		return "", fmt.Errorf("fleet: empty peer")
	}
	if !strings.Contains(raw, "://") {
		raw = "http://" + raw
	}
	u, err := url.Parse(raw)
	if err != nil {
		return "", fmt.Errorf("fleet: bad peer %q: %w", raw, err)
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return "", fmt.Errorf("fleet: peer %q: scheme must be http or https", raw)
	}
	if u.Host == "" {
		return "", fmt.Errorf("fleet: peer %q has no host", raw)
	}
	return u.Scheme + "://" + u.Host, nil
}

// AddPeer registers a peer, returning its normalized base URL.
// Duplicates are no-ops.
func (f *Federation) AddPeer(raw string) (string, error) {
	base, err := NormalizePeer(raw)
	if err != nil {
		return "", err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, p := range f.peers {
		if p == base {
			return base, nil
		}
	}
	f.peers = append(f.peers, base)
	return base, nil
}

// RemovePeer drops a peer, reporting whether it was present.
func (f *Federation) RemovePeer(raw string) bool {
	base, err := NormalizePeer(raw)
	if err != nil {
		return false
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	for i, p := range f.peers {
		if p == base {
			f.peers = append(f.peers[:i], f.peers[i+1:]...)
			return true
		}
	}
	return false
}

// Peers returns the peer base URLs, sorted.
func (f *Federation) Peers() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]string, len(f.peers))
	copy(out, f.peers)
	sort.Strings(out)
	return out
}

// ScrapeErrors returns the cumulative count of failed peer scrapes.
func (f *Federation) ScrapeErrors() uint64 { return f.scrapeErrs.Load() }

// workerLabel is the label value a peer's series carry: its host:port.
func workerLabel(base string) string {
	if u, err := url.Parse(base); err == nil && u.Host != "" {
		return u.Host
	}
	return base
}

// --- Prometheus text exposition model -------------------------------

// expoFamily is one metric family of a parsed exposition. Samples keep
// their full series name (summary _sum/_count sub-series differ from
// the family name), label body, and rendered value verbatim, so a
// merge re-emits peer data exactly as the peer exposed it.
type expoFamily struct {
	name    string
	typ     string
	help    string
	samples []expoSample
}

type expoSample struct {
	series string // full series name (family, or family_sum etc.)
	labels string // inner label body, no braces; "" for bare series
	value  string
}

// expoModel is a parsed exposition: families by name plus first-seen
// emission order.
type expoModel struct {
	fams  map[string]*expoFamily
	order []string
}

func newExpoModel() *expoModel {
	return &expoModel{fams: map[string]*expoFamily{}}
}

func (m *expoModel) family(name string) *expoFamily {
	fam := m.fams[name]
	if fam == nil {
		fam = &expoFamily{name: name}
		m.fams[name] = fam
		m.order = append(m.order, name)
	}
	return fam
}

// parseExposition reads Prometheus text format, keeping first-seen
// family order.
func parseExposition(r io.Reader) (*expoModel, error) {
	m := newExpoModel()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.SplitN(line, " ", 4)
			if len(fields) >= 3 {
				switch fields[1] {
				case "HELP":
					fam := m.family(fields[2])
					if len(fields) == 4 && fam.help == "" {
						fam.help = fields[3]
					}
				case "TYPE":
					fam := m.family(fields[2])
					if len(fields) == 4 && fam.typ == "" {
						fam.typ = fields[3]
					}
				}
			}
			continue
		}
		series, labels, value, err := splitSample(line)
		if err != nil {
			return nil, err
		}
		fam := m.family(familyOf(series))
		fam.samples = append(fam.samples, expoSample{series: series, labels: labels, value: value})
	}
	return m, sc.Err()
}

// familyOf maps a series name to its family: summary/histogram _sum,
// _count, and _bucket series belong to the base family, so a merged
// exposition never repeats a TYPE line for them.
func familyOf(name string) string {
	for _, suffix := range []string{"_sum", "_count", "_bucket"} {
		if base := strings.TrimSuffix(name, suffix); base != name && base != "" {
			return base
		}
	}
	return name
}

// splitSample breaks "name{labels} value" (or "name value") into
// parts, quote-aware: label values may contain '}' and escaped quotes.
func splitSample(line string) (series, labels, value string, err error) {
	brace := -1
	for i := 0; i < len(line); i++ {
		if line[i] == '{' {
			brace = i
			break
		}
		if line[i] == ' ' {
			break
		}
	}
	if brace < 0 {
		sp := strings.IndexByte(line, ' ')
		if sp < 0 {
			return "", "", "", fmt.Errorf("fleet: exposition sample %q has no value", line)
		}
		return line[:sp], "", strings.TrimSpace(line[sp+1:]), nil
	}
	series = line[:brace]
	inQuotes := false
	for i := brace + 1; i < len(line); i++ {
		switch line[i] {
		case '\\':
			if inQuotes {
				i++ // skip the escaped character
			}
		case '"':
			inQuotes = !inQuotes
		case '}':
			if !inQuotes {
				return series, line[brace+1 : i], strings.TrimSpace(line[i+1:]), nil
			}
		}
	}
	return "", "", "", fmt.Errorf("fleet: exposition sample %q has an unterminated label set", line)
}

// injectLabel appends label="value" to a label body unless a label of
// that name is already present (a peer that is itself a coordinator
// keeps its own worker attribution).
func injectLabel(body, label, value string) string {
	if strings.Contains(body, label+`="`) {
		return body
	}
	escaped := strings.ReplaceAll(value, `\`, `\\`)
	escaped = strings.ReplaceAll(escaped, `"`, `\"`)
	pair := label + `="` + escaped + `"`
	if body == "" {
		return pair
	}
	return body + "," + pair
}

func (m *expoModel) write(w io.Writer) error {
	for _, name := range m.order {
		fam := m.fams[name]
		typ := fam.typ
		if typ == "" {
			typ = "untyped"
		}
		help := fam.help
		if help == "" {
			help = "federated metric " + name
		}
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ); err != nil {
			return err
		}
		for _, s := range fam.samples {
			var err error
			if s.labels == "" {
				_, err = fmt.Fprintf(w, "%s %s\n", s.series, s.value)
			} else {
				_, err = fmt.Fprintf(w, "%s{%s} %s\n", s.series, s.labels, s.value)
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// --- scraping and merging -------------------------------------------

type peerScrape struct {
	peer  string
	model *expoModel
	err   error
}

// scrapeMetrics fetches and parses every peer's /metrics concurrently.
func (f *Federation) scrapeMetrics(peers []string) []peerScrape {
	out := make([]peerScrape, len(peers))
	var wg sync.WaitGroup
	for i, p := range peers {
		wg.Add(1)
		go func(i int, peer string) {
			defer wg.Done()
			out[i] = peerScrape{peer: peer}
			resp, err := f.client.Get(peer + "/metrics")
			if err != nil {
				out[i].err = err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				out[i].err = fmt.Errorf("fleet: %s/metrics: status %d", peer, resp.StatusCode)
				return
			}
			out[i].model, out[i].err = parseExposition(resp.Body)
		}(i, p)
	}
	wg.Wait()
	return out
}

// WriteMergedMetrics renders the coordinator's pane of glass: the
// local exposition (rendered by local), every reachable peer's series
// re-labeled with worker="host:port", and the synthesized
// fleet_peer_up / fleet_peers / fleet_peer_scrape_errors families.
// With no peers configured it is exactly the local exposition.
func (f *Federation) WriteMergedMetrics(w io.Writer, local func(io.Writer) error) error {
	peers := f.Peers()
	if len(peers) == 0 {
		return local(w)
	}
	var buf bytes.Buffer
	if err := local(&buf); err != nil {
		return err
	}
	model, err := parseExposition(&buf)
	if err != nil {
		return fmt.Errorf("fleet: local exposition: %w", err)
	}

	scrapes := f.scrapeMetrics(peers)

	up := model.family("fleet_peer_up")
	up.typ, up.help = "gauge", "whether the last scrape of this peer succeeded"
	count := model.family("fleet_peers")
	count.typ, count.help = "gauge", "configured federation peers"
	count.samples = append(count.samples,
		expoSample{series: "fleet_peers", value: fmt.Sprintf("%d", len(peers))})
	for _, s := range scrapes {
		v := "1"
		if s.err != nil {
			v = "0"
			f.scrapeErrs.Add(1)
		}
		up.samples = append(up.samples, expoSample{
			series: "fleet_peer_up",
			labels: injectLabel("", "worker", workerLabel(s.peer)),
			value:  v,
		})
	}
	errs := model.family("fleet_peer_scrape_errors")
	errs.typ, errs.help = "counter", "cumulative failed peer scrapes"
	errs.samples = append(errs.samples,
		expoSample{series: "fleet_peer_scrape_errors", value: fmt.Sprintf("%d", f.scrapeErrs.Load())})

	for _, s := range scrapes {
		if s.err != nil {
			continue
		}
		worker := workerLabel(s.peer)
		for _, famName := range s.model.order {
			pf := s.model.fams[famName]
			fam := model.family(famName)
			if fam.typ == "" {
				fam.typ = pf.typ
			}
			if fam.help == "" {
				fam.help = pf.help
			}
			for _, smp := range pf.samples {
				fam.samples = append(fam.samples, expoSample{
					series: smp.series,
					labels: injectLabel(smp.labels, "worker", worker),
					value:  smp.value,
				})
			}
		}
	}
	return model.write(w)
}

// MergedFolded returns the union of the local folded stacks and every
// reachable peer's fleet flamegraph; unreachable peers are counted and
// skipped, never fatal.
func (f *Federation) MergedFolded(local map[string]uint64) (map[string]uint64, int) {
	merged := make(map[string]uint64, len(local))
	trace.MergeFolded(merged, local)
	failed := 0
	for _, peer := range f.Peers() {
		resp, err := f.client.Get(peer + "/profile/flame?scope=fleet")
		if err != nil {
			f.scrapeErrs.Add(1)
			failed++
			continue
		}
		if resp.StatusCode != http.StatusOK {
			resp.Body.Close()
			f.scrapeErrs.Add(1)
			failed++
			continue
		}
		m, err := trace.ParseFolded(resp.Body)
		resp.Body.Close()
		if err != nil {
			f.scrapeErrs.Add(1)
			failed++
			continue
		}
		trace.MergeFolded(merged, m)
	}
	return merged, failed
}

// --- HTTP management surface ----------------------------------------

// peersPayload is the GET /fleet/peers response and POST body shape.
type peersPayload struct {
	Peers []string `json:"peers,omitempty"`
	URL   string   `json:"url,omitempty"`
}

// Handler serves the peer management API:
//
//	GET    /fleet/peers            list configured peers
//	POST   /fleet/peers            add one ({"url": "host:port"})
//	DELETE /fleet/peers?url=...    remove one
func (f *Federation) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /fleet/peers", func(w http.ResponseWriter, r *http.Request) {
		writePeersJSON(w, http.StatusOK, f.Peers())
	})
	mux.HandleFunc("POST /fleet/peers", func(w http.ResponseWriter, r *http.Request) {
		var req peersPayload
		if err := json.NewDecoder(io.LimitReader(r.Body, 1<<16)).Decode(&req); err != nil {
			http.Error(w, "bad request body: "+err.Error(), http.StatusBadRequest)
			return
		}
		if _, err := f.AddPeer(req.URL); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		writePeersJSON(w, http.StatusOK, f.Peers())
	})
	mux.HandleFunc("DELETE /fleet/peers", func(w http.ResponseWriter, r *http.Request) {
		if !f.RemovePeer(r.URL.Query().Get("url")) {
			http.Error(w, "no such peer", http.StatusNotFound)
			return
		}
		writePeersJSON(w, http.StatusOK, f.Peers())
	})
	return mux
}

func writePeersJSON(w http.ResponseWriter, code int, peers []string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(peersPayload{Peers: peers})
}
