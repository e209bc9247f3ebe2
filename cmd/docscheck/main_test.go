package main

import (
	"reflect"
	"testing"
)

const sampleHelp = `Usage of scanserver:
  -addr string
    	listen address (default ":8080")
  -cache int
    	response-cache capacity (default 64)
  -coalesce-window duration
    	merge concurrent clustering requests (0 = off)
  -index
    	build a GS*-Index at startup
  -log-requests
    	log one structured line per HTTP request
`

func TestParseHelpFlags(t *testing.T) {
	got := parseHelpFlags(sampleHelp)
	want := []string{"addr", "cache", "coalesce-window", "index", "log-requests"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestCheckFlags(t *testing.T) {
	doc := "| `-addr host:port` | ... |\n| `-cache n` | ... |\n| `-index` | ... |\n" +
		"| `-coalesce-window d` | ... |\n"
	missing := checkFlags(doc, []string{"addr", "cache", "coalesce-window", "index", "log-requests"})
	if !reflect.DeepEqual(missing, []string{"log-requests"}) {
		t.Fatalf("missing = %v, want [log-requests]", missing)
	}
	// A bare substring must not satisfy the check: "-cache" inside prose
	// without backticks is not a documented flag entry.
	missing = checkFlags("use -cache to size it", []string{"cache"})
	if len(missing) != 1 {
		t.Fatalf("unbackticked mention accepted: missing = %v", missing)
	}
}

func TestCheckRoutes(t *testing.T) {
	doc := "### `GET /cluster`\n### `GET /cluster/sweep`\n`GET /healthz`\n"
	missing := checkRoutes(doc, []string{"/healthz", "/cluster", "/cluster/sweep", "/metrics"})
	if !reflect.DeepEqual(missing, []string{"/metrics"}) {
		t.Fatalf("missing = %v, want [/metrics]", missing)
	}
}

const sampleTable = "| analyzer | suppression | pins |\n" +
	"|---|---|---|\n" +
	"| `atomicmix` | `//lint:atomicok` | atomic and plain access never mix |\n" +
	"| `wsalias` | `//lint:wsalias` | pooled results cloned before they escape |\n" +
	"| `snapfreeze` | `//lint:snapfreeze` | frozen snapshot arrays |\n" +
	"| `retired` | `//lint:retired` | an analyzer that no longer exists |\n" +
	"| `chanwait` | `//lint:wrongname` | bounded blocking waits |\n"

func TestCheckAnalyzerTable(t *testing.T) {
	analyzers := map[string]string{
		"atomicmix":  "atomicok",
		"wsalias":    "wsalias",
		"snapfreeze": "snapfreeze",
		"chanwait":   "chanwait",
		"panicsafe":  "panicsafe",
	}
	drift := checkAnalyzerTable(sampleTable, analyzers)
	want := []string{
		`analyzer chanwait row documents directive "wrongname", code says "chanwait"`,
		"analyzer panicsafe has no table row",
		"table row retired names no registered analyzer",
	}
	if !reflect.DeepEqual(drift, want) {
		t.Fatalf("drift = %q, want %q", drift, want)
	}
	// Other markdown tables (flag tables, gate tables) must not parse as
	// analyzer rows: cells lacking the backtick-name + backtick-directive
	// shape are ignored.
	if d := checkAnalyzerTable("| `-addr host:port` | listen address |\n"+sampleTable, analyzers); !reflect.DeepEqual(d, drift) {
		t.Fatalf("flag-table row changed the diff: %q", d)
	}
	// A clean table diffs clean.
	clean := "| `atomicmix` | `//lint:atomicok` | x |\n| `wsalias` | `//lint:wsalias` | x |\n"
	if d := checkAnalyzerTable(clean, map[string]string{"atomicmix": "atomicok", "wsalias": "wsalias"}); d != nil {
		t.Fatalf("clean table produced drift: %q", d)
	}
}

// TestStaleFlags is the other direction of TestCheckFlags: a row of a
// binary's flag table naming a flag that binary does not register is
// drift, while the same flag in another binary's table is not.
func TestStaleFlags(t *testing.T) {
	doc := "## 1. scanserver flags\n\n| Flag | Default | Meaning |\n|---|---|---|\n" +
		"| `-addr host:port` | `:8080` | ... |\n| `-watchdog d` | `0` | ... |\n| `-index` | off | ... |\n\n" +
		"Prose mentioning `-stale` is not a row.\n\n" +
		"## 2. ppscan flags\n\n| `-watchdog d` | `0` | ... |\n\n" +
		"### scanshard flags\n\n| `-shard i` | `-1` | ... |\n\n" +
		"## 3. Admission control\n\n| `-retired` | — | a table under no flags heading |\n"
	tables := flagTables(doc)
	want := map[string][]string{
		"scanserver": {"addr", "watchdog", "index"},
		"ppscan":     {"watchdog"},
		"scanshard":  {"shard"},
	}
	if !reflect.DeepEqual(tables, want) {
		t.Fatalf("flagTables = %v, want %v", tables, want)
	}
	if stale := staleFlags(tables["scanserver"], []string{"addr", "index"}); !reflect.DeepEqual(stale, []string{"watchdog"}) {
		t.Errorf("scanserver stale = %v, want [watchdog]", stale)
	}
	if stale := staleFlags(tables["ppscan"], []string{"watchdog", "eps"}); stale != nil {
		t.Errorf("ppscan stale = %v, want none", stale)
	}
}

// TestOverCeiling: a document one line over its ceiling is drift, one at
// its ceiling is not.
func TestOverCeiling(t *testing.T) {
	docs := map[string]string{"A.md": "one\ntwo\nthree\n", "B.md": "one\ntwo\n"}
	got := overCeiling(docs, map[string]int{"A.md": 2, "B.md": 2})
	if want := []string{"A.md has 3 lines, over its ceiling of 2"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("overCeiling = %v, want %v", got, want)
	}
	if got := overCeiling(docs, map[string]int{"A.md": 3, "B.md": 2}); got != nil {
		t.Fatalf("documents at their ceilings reported: %v", got)
	}
}

const sampleNames = `package obsv

const (
	MetricCacheHits = "cache.hits"
	// MetricHTTPRequestsPrefix + endpoint.
	MetricHTTPRequestsPrefix = "http.requests."
	MetricServerPanics       = "server.panics"
)
`

func TestCheckMetrics(t *testing.T) {
	consts, err := metricConstants(sampleNames)
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"cache.hits", "http.requests.", "server.panics"}; !reflect.DeepEqual(consts, want) {
		t.Fatalf("constants = %q, want %q", consts, want)
	}
	const table = "| Name | Type | Meaning |\n|---|---|---|\n"
	full := table +
		"| `cache.hits` | counter | See `server.panics` in prose: only the first cell names rows. |\n" +
		"| `http.requests.<endpoint>` | counter | Requests per endpoint. |\n" +
		"| `server.panics` | counter | Contained panics. |\n" +
		"\nProse after the table: `retired.metric` is not a row.\n"
	if d := checkMetrics(full, consts); len(d) != 0 {
		t.Fatalf("matching catalogue drifted: %q", d)
	}

	t.Run("constant without a row", func(t *testing.T) {
		doc := table + "| `cache.hits` | counter | … |\n| `server.panics` | counter | … |\n"
		want := []string{"metric `http.requests.<…>` has no table row"}
		if d := checkMetrics(doc, consts); !reflect.DeepEqual(d, want) {
			t.Fatalf("drift = %q, want %q", d, want)
		}
	})
	t.Run("row without a constant", func(t *testing.T) {
		doc := full + "\n" + table +
			"| `core.runs` | counter | A deleted metric. |\n" +
			"| `cache.hits` / `.misses` | counter | A grouped row that names no whole second metric. |\n" +
			"| `http.requests.` | counter | A prefix without its placeholder. |\n" +
			"| `server.panics.<kind>` | counter | A placeholder on a whole name. |\n"
		want := []string{
			"metric row `.misses` is not a names.go constant",
			"metric row `core.runs` is not a names.go constant",
			"metric row `http.requests.` is not a names.go constant",
			"metric row `server.panics.<kind>` is not a names.go constant",
		}
		if d := checkMetrics(doc, consts); !reflect.DeepEqual(d, want) {
			t.Fatalf("drift = %q, want %q", d, want)
		}
	})
	if _, err := metricConstants("package obsv\n"); err == nil {
		t.Error("a names.go without constants parsed")
	}
}
