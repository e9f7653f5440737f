package core

import (
	"context"
	"strconv"
	"strings"
	"testing"

	"repro/internal/docs"
	"repro/internal/wire"
)

// TestDocInfoServesStoredSnippets pins that a MsgDocInfo answer does not
// recompute snippets: answering for 50 documents costs a handful of
// allocations more than answering for one (the reply buffer growing),
// not the two per document a snippet computation takes.
func TestDocInfoServesStoredSnippets(t *testing.T) {
	p := &Peer{docs: docs.NewStore()}
	body := strings.Repeat("a long body of words to summarize ", 20)
	for i := 0; i < 50; i++ {
		// An original URL keeps docURL from building one per document.
		name := "d" + strconv.Itoa(i)
		if _, err := p.docs.Add(&docs.Document{Name: name, Title: name, Body: body, URL: "http://x/" + name}); err != nil {
			t.Fatal(err)
		}
	}
	request := func(n int) []byte {
		w := wire.NewWriter(64)
		w.Uvarint(uint64(n))
		for i := 0; i < n; i++ {
			w.Uvarint(uint64(i))
		}
		return w.Bytes()
	}
	allocs := func(n int) float64 {
		req := request(n)
		return testing.AllocsPerRun(20, func() {
			if _, _, err := p.handleDocInfo(context.Background(), "", MsgDocInfo, req); err != nil {
				t.Fatal(err)
			}
		})
	}
	one, fifty := allocs(1), allocs(50)
	if fifty-one > 10 {
		t.Fatalf("MsgDocInfo made %v allocations for 1 document, %v for 50", one, fifty)
	}
}
