// Package diag is the client side of the daemon's diagnostic surface:
// it lists and fetches anomaly bundles from /debug/bundles and tails
// the wide-event journal from /debug/events. cmd/meldiag is a thin
// CLI over this package; tests drive it against a live daemon.
package diag

import (
	"archive/tar"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/telemetry/anomaly"
	"repro/internal/telemetry/events"
)

// Client talks to one daemon's metrics sidecar (the -metrics listener).
type Client struct {
	// Base is the sidecar root, e.g. "http://127.0.0.1:9090". A bare
	// host:port is accepted and gets the scheme prefixed.
	Base string
	// HTTP overrides the transport; nil uses a 10s-timeout default.
	HTTP *http.Client
}

// New normalizes addr (host:port or full URL) into a Client.
func New(addr string) *Client {
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	return &Client{Base: strings.TrimRight(addr, "/")}
}

func (c *Client) httpc() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return &http.Client{Timeout: 10 * time.Second}
}

// get fetches path?query and decodes the JSON body into out.
func (c *Client) get(path string, query url.Values, out any) error {
	u := c.Base + path
	if len(query) > 0 {
		u += "?" + query.Encode()
	}
	resp, err := c.httpc().Get(u)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("GET %s: %s: %s", u, resp.Status, strings.TrimSpace(string(body)))
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// List returns the bundle listing (newest first) with live burn
// statuses when the daemon runs a detector.
func (c *Client) List() (anomaly.BundlesPage, error) {
	var page anomaly.BundlesPage
	err := c.get("/debug/bundles", nil, &page)
	return page, err
}

// Manifest fetches one bundle's manifest.
func (c *Client) Manifest(id string) (anomaly.Manifest, error) {
	var m anomaly.Manifest
	q := url.Values{"id": {id}, "file": {"manifest.json"}}
	err := c.get("/debug/bundles", q, &m)
	return m, err
}

// Fetch downloads bundle id as a tar stream and unpacks it under
// destDir, returning the extracted file paths. Entry names outside the
// bundle directory are rejected.
func (c *Client) Fetch(id, destDir string) ([]string, error) {
	u := c.Base + "/debug/bundles?" + url.Values{"id": {id}}.Encode()
	resp, err := c.httpc().Get(u)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, fmt.Errorf("GET %s: %s: %s", u, resp.Status, strings.TrimSpace(string(body)))
	}
	var extracted []string
	tr := tar.NewReader(resp.Body)
	for {
		hdr, err := tr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return extracted, err
		}
		if hdr.Typeflag != tar.TypeReg {
			continue
		}
		// Entries are id/<name>; reject anything that would escape.
		name := filepath.Clean(hdr.Name)
		if filepath.IsAbs(name) || strings.HasPrefix(name, "..") || strings.Contains(name, string(filepath.Separator)+"..") {
			return extracted, fmt.Errorf("tar entry escapes destination: %q", hdr.Name)
		}
		dest := filepath.Join(destDir, name)
		if err := os.MkdirAll(filepath.Dir(dest), 0o755); err != nil {
			return extracted, err
		}
		f, err := os.OpenFile(dest, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
		if err != nil {
			return extracted, err
		}
		_, cpErr := io.Copy(f, tr)
		clErr := f.Close()
		if cpErr != nil {
			return extracted, cpErr
		}
		if clErr != nil {
			return extracted, clErr
		}
		extracted = append(extracted, dest)
	}
	if len(extracted) == 0 {
		return nil, errors.New("empty bundle tar")
	}
	sort.Strings(extracted)
	return extracted, nil
}

// EventsQuery carries the /debug/events filters.
type EventsQuery struct {
	N       int
	Verdict string
	MinMs   float64
	Trace   string
	SinceNs int64
}

func (q EventsQuery) values() url.Values {
	v := url.Values{}
	if q.N > 0 {
		v.Set("n", strconv.Itoa(q.N))
	}
	if q.Verdict != "" {
		v.Set("verdict", q.Verdict)
	}
	if q.MinMs > 0 {
		v.Set("min_ms", strconv.FormatFloat(q.MinMs, 'f', -1, 64))
	}
	if q.Trace != "" {
		v.Set("trace", q.Trace)
	}
	if q.SinceNs > 0 {
		v.Set("since_ns", strconv.FormatInt(q.SinceNs, 10))
	}
	return v
}

// Events fetches one page of the journal.
func (c *Client) Events(q EventsQuery) (events.Page, error) {
	var page events.Page
	err := c.get("/debug/events", q.values(), &page)
	return page, err
}

// Tail polls /debug/events every interval, printing events newer than
// the last seen start time, until stop closes. The first poll prints
// the current page so the caller sees context immediately.
func (c *Client) Tail(w io.Writer, q EventsQuery, interval time.Duration, stop <-chan struct{}) error {
	if interval <= 0 {
		interval = time.Second
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		page, err := c.Events(q)
		if err != nil {
			return err
		}
		// The page is newest-first; print oldest-first and advance the
		// since cursor past everything seen.
		for i := len(page.Events) - 1; i >= 0; i-- {
			e := &page.Events[i]
			fmt.Fprintln(w, FormatEvent(e))
			if e.StartUnixNs >= q.SinceNs {
				q.SinceNs = e.StartUnixNs + 1
			}
		}
		select {
		case <-stop:
			return nil
		case <-t.C:
		}
	}
}

// FormatEvent renders one journal event as a log line.
func FormatEvent(e *events.EventJSON) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s %7.3fms %6dB mel=%d tau=%.1f cause=%s",
		time.Unix(0, e.StartUnixNs).UTC().Format("15:04:05.000"),
		float64(e.TotalNs)/1e6, e.Bytes, e.MEL, e.Threshold, e.Cause)
	if e.Malicious {
		b.WriteString(" MALICIOUS")
	}
	if e.Cached {
		b.WriteString(" cached")
	}
	if e.DecodeChain != "" {
		fmt.Fprintf(&b, " chain=%s", e.DecodeChain)
	}
	if e.TriageCleared {
		b.WriteString(" triage-cleared")
	}
	if e.Trace != "" {
		fmt.Fprintf(&b, " trace=%s", e.Trace)
	}
	return b.String()
}

// FormatManifest pretty-prints one bundle manifest.
func FormatManifest(w io.Writer, m *anomaly.Manifest) {
	fmt.Fprintf(w, "bundle   %s\n", m.ID)
	fmt.Fprintf(w, "captured %s\n", time.Unix(0, m.TimeUnixNs).UTC().Format(time.RFC3339))
	fmt.Fprintf(w, "reason   %s\n", m.Reason)
	fmt.Fprintf(w, "files    %d\n", len(m.Files))
	for _, f := range m.Files {
		if f.Err != "" {
			fmt.Fprintf(w, "  %-24s ERROR: %s\n", f.Name, f.Err)
			continue
		}
		fmt.Fprintf(w, "  %-24s %8d bytes\n", f.Name, f.Bytes)
	}
}

// FormatList pretty-prints the bundle listing and burn statuses.
func FormatList(w io.Writer, page *anomaly.BundlesPage) {
	fmt.Fprintf(w, "%d bundle(s) in %s\n", page.Count, page.Dir)
	for _, m := range page.Bundles {
		fmt.Fprintf(w, "  %s  %s  %d files  %s\n",
			m.ID, time.Unix(0, m.TimeUnixNs).UTC().Format(time.RFC3339), len(m.Files), m.Reason)
	}
	for _, st := range page.Statuses {
		state := "ok"
		if st.Tripped {
			state = "TRIPPED"
		}
		fmt.Fprintf(w, "  slo %-8s burn short=%.2f long=%.2f  %s\n",
			st.Signal, st.BurnShort, st.BurnLong, state)
	}
}
