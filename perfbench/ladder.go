package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"time"

	"soctam/internal/coopt"
	"soctam/internal/serve"
	"soctam/internal/soc"
	"soctam/internal/socdata"
)

// The request-path ladder of the traced run: wtamd nodes on loopback
// listeners, one keep-alive client connection, and each service layer
// timed one public call at a time on a few of the job list's SOCs.

// ladderKey is one request the ladder probes: a built-in benchmark SOC
// at one width, solved with the packing strategy, which costs
// milliseconds, so the ladder times the service layers and not the
// solver.
type ladderKey struct {
	name string   // benchmark SOC name
	s    *soc.SOC // the SOC as socdata builds it
	w    int
	body []byte // the {"benchmark":…} request body
}

func newLadderKey(name string, s *soc.SOC, w int) ladderKey {
	body := fmt.Sprintf(`{"benchmark":%q,"width":%d,"options":{"strategy":"packing"}}`, name, w)
	return ladderKey{name: name, s: s, w: w, body: []byte(body)}
}

func (k *ladderKey) id() string { return fmt.Sprintf("%s/packing/W%d", k.name, k.w) }

// packingOptions is the library form of a ladder request.
var packingOptions = coopt.Options{Workers: 1, Strategy: coopt.StrategyPacking}

// node is one wtamd server on a loopback listener.
type node struct {
	sv   *serve.Server
	srv  *http.Server
	addr string
	done chan struct{}
}

// startNodes starts n servers; with n > 1 they form one digest-sharded
// cluster.
func startNodes(n int, cfg serve.Config) ([]*node, error) {
	lns := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return nil, err
		}
		lns[i], addrs[i] = ln, ln.Addr().String()
	}
	nodes := make([]*node, n)
	for i, ln := range lns {
		c := cfg
		if n > 1 {
			c.Peers, c.Self = addrs, addrs[i]
		}
		sv, err := serve.NewCluster(c)
		if err != nil {
			for _, l := range lns[i:] {
				l.Close()
			}
			closeNodes(nodes[:i])
			return nil, err
		}
		nd := &node{sv: sv, srv: &http.Server{Handler: sv.Handler()}, addr: addrs[i], done: make(chan struct{})}
		go func() {
			defer close(nd.done)
			_ = nd.srv.Serve(ln) // returns http.ErrServerClosed on close
		}()
		nodes[i] = nd
	}
	return nodes, nil
}

func closeNodes(nodes []*node) {
	for _, nd := range nodes {
		if nd == nil {
			continue
		}
		nd.srv.Close()
		<-nd.done
		nd.sv.Close()
	}
}

// svcResponse holds the response fields the checks read.
type svcResponse struct {
	Node   string `json:"node"`
	Result struct {
		Time int64 `json:"time"`
	} `json:"result"`
}

// ladder holds the nodes the probes send to: a single node, a 2-node
// cluster for the routed hop, and a node with its result cache off for
// cold requests.
type ladder struct {
	single, pair, cold []*node
	client             *http.Client
}

func newLadder() (*ladder, error) {
	ld := &ladder{client: &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
		Timeout:   60 * time.Second,
	}}
	var err error
	if ld.single, err = startNodes(1, serve.Config{}); err != nil {
		return nil, err
	}
	if ld.pair, err = startNodes(2, serve.Config{}); err != nil {
		ld.close()
		return nil, err
	}
	if ld.cold, err = startNodes(1, serve.Config{CacheSize: -1}); err != nil {
		ld.close()
		return nil, err
	}
	return ld, nil
}

func (ld *ladder) close() {
	ld.client.CloseIdleConnections()
	closeNodes(ld.single)
	closeNodes(ld.pair)
	closeNodes(ld.cold)
}

// post sends body to nd and checks a 200 with testing time want.
func (ld *ladder) post(nd *node, body []byte, want int64) (svcResponse, error) {
	var r svcResponse
	resp, err := ld.client.Post("http://"+nd.addr+"/v1/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		return r, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return r, err
	}
	if resp.StatusCode != http.StatusOK {
		return r, fmt.Errorf("status %d: %.200s", resp.StatusCode, raw)
	}
	if err := json.Unmarshal(raw, &r); err != nil {
		return r, err
	}
	if r.Result.Time != want {
		return r, fmt.Errorf("time %d, want %d", r.Result.Time, want)
	}
	return r, nil
}

// probe times every request-path layer for key k, checking each
// response against the library's answer for it.
func (ld *ladder) probe(tr *tracer, parent int64, k *ladderKey, l *layers) error {
	req := k.id()
	canon, _ := k.s.Canonical()
	ref, err := coopt.Solve(canon, k.w, packingOptions)
	if err != nil {
		return err
	}
	want := int64(ref.Time)
	text := k.s.EncodeString()
	steps := []struct {
		name, metric string
		fn           func() error
	}{
		{"socdata.ByName", "socdata.byname_us", func() error { _, err := socdata.ByName(k.name); return err }},
		{"soc.Digest", "soc.digest_us", func() error { k.s.Digest(); return nil }},
		{"soc.Canonical", "soc.canonical_us", func() error { k.s.Canonical(); return nil }},
		{"soc.ParseString", "soc.parse_us", func() error { _, err := soc.ParseString(text); return err }},
	}
	for _, st := range steps {
		d, err := timeCalls(tr, st.name, parent, req, st.fn)
		if err != nil {
			return err
		}
		l.add(st.metric, us(d))
	}

	sv := ld.single[0].sv
	ctx := context.Background()
	if _, err := ld.post(ld.single[0], k.body, want); err != nil { // warms the key
		return err
	}
	d, err := timeCalls(tr, "serve.Solve", parent, req, func() error {
		res, meta, err := sv.Solve(ctx, k.s, k.w, coopt.Options{Strategy: coopt.StrategyPacking})
		switch {
		case err != nil:
			return err
		case !meta.Cached:
			return fmt.Errorf("warm key missed the cache")
		case int64(res.Time) != want:
			return fmt.Errorf("time %d, want %d", res.Time, want)
		}
		return nil
	})
	if err != nil {
		return err
	}
	l.add("serve.solve_hit_us", us(d))
	h := ld.single[0].srv.Handler
	if d, err = timeCalls(tr, "serve.Handler", parent, req, func() error {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(k.body)))
		if rec.Code != http.StatusOK {
			return fmt.Errorf("status %d", rec.Code)
		}
		return nil
	}); err != nil {
		return err
	}
	l.add("serve.handler_us", us(d))
	if d, err = timeCalls(tr, "serve.http", parent, req, func() error {
		_, err := ld.post(ld.single[0], k.body, want)
		return err
	}); err != nil {
		return err
	}
	l.add("serve.http_us", us(d))

	// The routed hop: the same warm request at the owner and at the
	// other node, which forwards it.
	r, err := ld.post(ld.pair[0], k.body, want)
	if err != nil {
		return err
	}
	owner, other := ld.pair[0], ld.pair[1]
	if r.Node == other.addr {
		owner, other = other, owner
	}
	var at [2]time.Duration
	for i, nd := range []*node{owner, other} {
		if at[i], err = timeCalls(tr, "serve.http "+[]string{"owner", "routed"}[i], parent, req, func() error {
			_, err := ld.post(nd, k.body, want)
			return err
		}); err != nil {
			return err
		}
	}
	l.add("serve.forward_us", us(at[1]-at[0]))

	// A cold request against the same solve in the library.
	var lib, cold []float64
	for i := 0; i < 3; i++ {
		sp := tr.begin("coopt.Solve canonical", parent, req)
		if _, err := coopt.SolveContext(ctx, canon, k.w, packingOptions); err != nil {
			return err
		}
		lib = append(lib, ms(sp.end()))
		sp = tr.begin("serve.http cold", parent, req)
		if _, err := ld.post(ld.cold[0], k.body, want); err != nil {
			return err
		}
		cold = append(cold, ms(sp.end()))
	}
	l.add("pack.solve_ms", median(lib))
	l.add("serve.cold_overhead_ms", median(cold)-median(lib))
	return nil
}

// runLadder probes the request-path layers for each key.
func runLadder(tr *tracer, keys []ladderKey, l *layers) error {
	ld, err := newLadder()
	if err != nil {
		return err
	}
	defer ld.close()
	for i := range keys {
		root := tr.begin("ladder", 0, keys[i].id())
		err := ld.probe(tr, root.id, &keys[i], l)
		root.end()
		if err != nil {
			return fmt.Errorf("ladder %s: %w", keys[i].id(), err)
		}
	}
	return nil
}
