// Command alvisp2p is the AlvisP2P peer client of the paper's §4:
// joining a network is starting the binary with a contact peer's address;
// documents dropped into the shared directory are indexed and become
// searchable network-wide; an optional web interface serves search,
// the shared-documents manager and the network statistics screens.
//
// Usage:
//
//	alvisp2p -listen :4001                          # first peer of a network
//	alvisp2p -listen :4002 -bootstrap host:4001     # join via a contact peer
//	alvisp2p -listen :4003 -web :8080 -shared ./docs -strategy qdi
//
// Without -web the client runs an interactive prompt (the "standalone
// client" mode): type a query to search, or one of the commands
// `add <file>`, `publish`, `stats`, `strategy hdk|qdi`, `quit`.
//
// With -serve the client runs headless — no prompt, no web UI — until
// SIGINT or SIGTERM arrives, then shuts down gracefully (peer leaves
// the network with its watermark persisted) and exits 0. This is the
// mode the cluster harness (internal/cluster) spawns. With
// -metrics-addr the peer's telemetry registry is served at
// http://<addr>/metrics in Prometheus text format. Once the peer is
// joined and its shared documents are published, one machine-readable
// line is printed to stdout for harness consumption:
//
//	ALVISP2P READY addr=<p2p-addr> metrics=<metrics-addr>
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	alvisp2p "repro"
	"repro/internal/telemetry"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:0", "peer-to-peer listen address")
	bootstrap := flag.String("bootstrap", "", "contact peer address (empty = start a new network)")
	web := flag.String("web", "", "web interface listen address (empty = standalone prompt)")
	shared := flag.String("shared", "", "shared directory to index at startup")
	strategy := flag.String("strategy", "hdk", "indexing strategy: hdk or qdi")
	replication := flag.Int("replication", 1, "global-index replication factor (1 = single copy)")
	maintainEvery := flag.Duration("maintain", 5*time.Second, "maintenance interval")
	joinTimeout := flag.Duration("join-timeout", 10*time.Second, "bootstrap join deadline")
	queryTimeout := flag.Duration("query-timeout", 10*time.Second, "per-query deadline (0 = none)")
	topK := flag.Int("topk", 0, "per-query result budget (0 = peer default)")
	admission := flag.Int("admission-watermark", 0,
		"in-flight handler count above which doomed requests are shed (0 = admission control off)")
	dataDir := flag.String("data-dir", "",
		"directory for durable global-index storage (WAL + snapshots); empty = in-memory only")
	antiEntropy := flag.Duration("anti-entropy", 0,
		"background replica-repair sweep interval (0 = ring-change events only; needs -replication > 1)")
	resultCache := flag.Int("result-cache", 0,
		"resolved-result cache entries for repeat HDK queries (0 = off)")
	prefixCache := flag.Int("prefix-cache", 0,
		"posting-prefix cache entries consulted by every search's index reads (0 = off)")
	cacheTTL := flag.Duration("cache-ttl", 0,
		"staleness bound for both client caches (0 = the 2s default when a cache is on)")
	hotKeyThreshold := flag.Float64("hot-key-threshold", 0,
		"reads/sec EWMA above which an owned key gets soft replicas (0 = soft replication off)")
	softReplicas := flag.Int("soft-replicas", 2,
		"soft copies pushed per hot key (needs -hot-key-threshold > 0)")
	softReplicaTTL := flag.Duration("soft-replica-ttl", 30*time.Second,
		"lifetime of a pushed soft copy at its holder")
	softReplicaEvery := flag.Duration("soft-replica-interval", 5*time.Second,
		"hot-key promotion sweep interval (0 = manual only; needs -hot-key-threshold > 0)")
	metricsAddr := flag.String("metrics-addr", "",
		"serve the telemetry registry at http://<addr>/metrics (empty = off)")
	serveMode := flag.Bool("serve", false,
		"headless mode: run until SIGINT/SIGTERM, then shut down gracefully (what the cluster harness uses)")
	flag.Parse()

	cfg := alvisp2p.Config{
		ReplicationFactor:   *replication,
		AdmissionWatermark:  *admission,
		DataDir:             *dataDir,
		AntiEntropyInterval: *antiEntropy,
		ResultCache:         *resultCache,
		PrefixCache:         *prefixCache,
		CacheTTL:            *cacheTTL,
		HotKeyThreshold:     *hotKeyThreshold,
		SoftReplicas:        *softReplicas,
		SoftReplicaTTL:      *softReplicaTTL,
		SoftReplicaInterval: *softReplicaEvery,
	}
	switch strings.ToLower(*strategy) {
	case "hdk":
		cfg.Strategy = alvisp2p.StrategyHDK
	case "qdi":
		cfg.Strategy = alvisp2p.StrategyQDI
	default:
		log.Fatalf("unknown strategy %q (want hdk or qdi)", *strategy)
	}

	peer, err := alvisp2p.ListenTCP(*listen, cfg)
	if err != nil {
		log.Fatalf("listen: %v", err)
	}
	defer peer.Close()
	log.Printf("peer listening on %s (strategy %s)", peer.Addr(), peer.Strategy())

	if *bootstrap != "" {
		// The deadline also bounds the bootstrap dial: a dead contact
		// address fails here, not after the OS default TCP timeout.
		ctx, cancel := context.WithTimeout(context.Background(), *joinTimeout)
		err := peer.Join(ctx, alvisp2p.Addr(*bootstrap))
		cancel()
		if err != nil {
			log.Fatalf("join %s: %v", *bootstrap, err)
		}
		log.Printf("joined network via %s", *bootstrap)
	}

	if *shared != "" {
		n, err := indexSharedDir(peer, *shared)
		if err != nil {
			log.Fatalf("shared dir: %v", err)
		}
		log.Printf("indexed %d documents from %s", n, *shared)
		if err := peer.PublishIndex(context.Background()); err != nil {
			log.Printf("publish: %v", err)
		} else {
			log.Printf("published local index to the network")
		}
	}

	// Background maintenance (ring repair, finger refresh, QDI aging).
	go func() {
		for range time.Tick(*maintainEvery) {
			peer.Maintain(context.Background())
		}
	}()

	var msrv *telemetry.MetricsServer
	if *metricsAddr != "" {
		msrv, err = peer.Telemetry().Serve(*metricsAddr)
		if err != nil {
			log.Fatalf("metrics: %v", err)
		}
		log.Printf("metrics on http://%s/metrics", msrv.Addr)
	}

	// The readiness line is the harness contract: printed only after the
	// peer is listening, joined and (when -shared was given) published,
	// so a parent process that has read it may immediately drive load.
	maddr := ""
	if msrv != nil {
		maddr = msrv.Addr
	}
	fmt.Printf("ALVISP2P READY addr=%s metrics=%s\n", peer.Addr(), maddr)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	if *serveMode {
		s := <-sigc
		log.Printf("%v: shutting down", s)
		gracefulExit(peer, msrv)
	}
	go func() {
		s := <-sigc
		log.Printf("%v: shutting down", s)
		gracefulExit(peer, msrv)
	}()

	if *web != "" {
		log.Printf("web interface on http://%s", *web)
		log.Fatal(serveWeb(peer, *web, *queryTimeout))
	}
	prompt(peer, *queryTimeout, *topK)
	gracefulExit(peer, msrv)
}

// gracefulExit tears the process down in shutdown order — metrics
// listener first (scrapers see connection refused, not hangs), then the
// peer (watermark persisted, storage flushed) — and exits 0, or 1 when
// the peer's shutdown surfaced an error.
func gracefulExit(peer *alvisp2p.Peer, msrv *telemetry.MetricsServer) {
	if msrv != nil {
		msrv.Close()
	}
	if err := peer.Close(); err != nil {
		log.Printf("close: %v", err)
		os.Exit(1)
	}
	os.Exit(0)
}

// indexSharedDir loads every regular file of dir into the peer.
func indexSharedDir(peer *alvisp2p.Peer, dir string) (int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	n := 0
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		content, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return n, err
		}
		if _, err := peer.AddFile(e.Name(), content); err != nil {
			log.Printf("skipping %s: %v", e.Name(), err)
			continue
		}
		n++
	}
	return n, nil
}

// prompt is the standalone client loop.
func prompt(peer *alvisp2p.Peer, queryTimeout time.Duration, topK int) {
	sc := bufio.NewScanner(os.Stdin)
	fmt.Println("alvisp2p> type a query, or: add <file> | publish | stats | strategy hdk|qdi | quit")
	var lastResults []alvisp2p.Result
	for {
		fmt.Print("alvisp2p> ")
		if !sc.Scan() {
			return
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "quit", "exit":
			return
		case "add":
			if len(fields) < 2 {
				fmt.Println("usage: add <file>")
				continue
			}
			content, err := os.ReadFile(fields[1])
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			d, err := peer.AddFile(filepath.Base(fields[1]), content)
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			fmt.Printf("added %q (id %d); run `publish` to make it searchable\n", d.Title, d.ID)
		case "publish":
			if err := peer.PublishIndex(context.Background()); err != nil {
				fmt.Println("error:", err)
				continue
			}
			fmt.Println("published")
		case "stats":
			st := peer.Stats()
			fmt.Printf("shared docs: %d, local terms: %d, global keys held: %d (%d postings, %d bytes)\n",
				st.SharedDocuments, st.LocalTerms, st.GlobalKeys, st.GlobalPostings, st.GlobalBytes)
		case "strategy":
			if len(fields) == 2 && fields[1] == "qdi" {
				peer.SetStrategy(alvisp2p.StrategyQDI)
			} else if len(fields) == 2 && fields[1] == "hdk" {
				peer.SetStrategy(alvisp2p.StrategyHDK)
			}
			fmt.Println("strategy:", peer.Strategy())
		case "fetch":
			if len(fields) < 2 || len(lastResults) == 0 {
				fmt.Println("usage: fetch <result#> (after a search)")
				continue
			}
			var idx int
			fmt.Sscanf(fields[1], "%d", &idx)
			if idx < 1 || idx > len(lastResults) {
				fmt.Println("no such result")
				continue
			}
			title, body, err := peer.FetchDocument(context.Background(), lastResults[idx-1], "", "")
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			fmt.Printf("--- %s ---\n%s\n", title, body)
		default: // a query
			var opts []alvisp2p.SearchOption
			if queryTimeout > 0 {
				opts = append(opts, alvisp2p.WithTimeout(queryTimeout))
			}
			if topK > 0 {
				opts = append(opts, alvisp2p.WithTopK(topK))
			}
			resp, err := peer.Search(context.Background(), line, opts...)
			if err != nil && !errors.Is(err, alvisp2p.ErrPartialResults) {
				fmt.Println("error:", err)
				continue
			}
			results, trace := resp.Results, resp.Trace
			lastResults = results
			if resp.Partial {
				fmt.Println("(deadline hit: showing partial results)")
			}
			fmt.Printf("%d results (%d probes, %d skipped", len(results), trace.Probes, trace.Skipped)
			if trace.Activated > 0 {
				fmt.Printf(", %d keys indexed on demand", trace.Activated)
			}
			fmt.Println(")")
			for i, r := range results {
				access := ""
				if !r.Public {
					access = " [restricted]"
				}
				fmt.Printf("%2d. %.3f  %s%s\n    %s\n    %s\n", i+1, r.Score, r.Title, access, r.URL, r.Snippet)
			}
		}
	}
}
