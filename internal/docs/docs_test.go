package docs

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/textproc"
)

func TestStoreAddGetRemove(t *testing.T) {
	s := NewStore()
	d1, err := s.Add(&Document{Name: "a.txt", Title: "A", Body: "alpha"})
	if err != nil {
		t.Fatal(err)
	}
	d2, err := s.Add(&Document{Name: "b.txt", Title: "B", Body: "beta"})
	if err != nil {
		t.Fatal(err)
	}
	if d1.ID == d2.ID {
		t.Fatal("distinct documents must get distinct IDs")
	}
	if got := s.Get(d1.ID); got == nil || got.Title != "A" {
		t.Fatalf("Get = %+v", got)
	}
	if got := s.GetByName("b.txt"); got == nil || got.ID != d2.ID {
		t.Fatalf("GetByName = %+v", got)
	}
	if !s.Remove(d1.ID) {
		t.Fatal("remove existing")
	}
	if s.Remove(d1.ID) {
		t.Fatal("remove twice")
	}
	if s.Len() != 1 {
		t.Fatalf("len = %d", s.Len())
	}
}

func TestStoreReplaceByName(t *testing.T) {
	s := NewStore()
	d1, _ := s.Add(&Document{Name: "a.txt", Body: "v1"})
	d2, _ := s.Add(&Document{Name: "a.txt", Body: "v2"})
	if d1.ID != d2.ID {
		t.Fatal("overwriting a name must keep the ID")
	}
	if got := s.Get(d1.ID); got.Body != "v2" {
		t.Fatalf("body = %q", got.Body)
	}
	if s.Len() != 1 {
		t.Fatalf("len = %d", s.Len())
	}
}

func TestStoreAddValidation(t *testing.T) {
	s := NewStore()
	if _, err := s.Add(nil); err == nil {
		t.Fatal("nil document must be rejected")
	}
	if _, err := s.Add(&Document{}); err == nil {
		t.Fatal("unnamed document must be rejected")
	}
}

func TestStoreDoesNotAliasCaller(t *testing.T) {
	s := NewStore()
	orig := &Document{Name: "a.txt", Body: "original"}
	stored, _ := s.Add(orig)
	orig.Body = "mutated"
	if got := s.Get(stored.ID); got.Body != "original" {
		t.Fatal("store must copy the caller's document")
	}
}

func TestAccessControl(t *testing.T) {
	s := NewStore()
	d, _ := s.Add(&Document{Name: "secret.txt", Body: "classified",
		Access: Access{User: "alice", Password: "pw"}})
	if s.Authorize(d.ID, "", "") {
		t.Fatal("protected document must reject anonymous access")
	}
	if s.Authorize(d.ID, "alice", "wrong") {
		t.Fatal("wrong password must be rejected")
	}
	if !s.Authorize(d.ID, "alice", "pw") {
		t.Fatal("correct credentials must be accepted")
	}
	if s.Authorize(999, "alice", "pw") {
		t.Fatal("unknown document must be unauthorized")
	}
	if !s.SetAccess(d.ID, Access{Public: true}) {
		t.Fatal("SetAccess on existing doc")
	}
	if !s.Authorize(d.ID, "", "") {
		t.Fatal("public document must accept anonymous access")
	}
}

func TestAccessEmptyUserNeverAuthorizes(t *testing.T) {
	a := Access{User: "", Password: ""}
	if a.Authorize("", "") {
		t.Fatal("non-public document with empty credentials must not authorize empty login")
	}
}

func TestSnippet(t *testing.T) {
	d := &Document{Body: "  The   quick\nbrown\tfox  "}
	if got := d.Snippet(100); got != "The quick brown fox" {
		t.Fatalf("snippet = %q", got)
	}
	if got := d.Snippet(9); got != "The quick" {
		t.Fatalf("snippet(9) = %q", got)
	}
}

// TestStoredSnippetComputedOnce pins that a stored document answers the
// presentation snippet without recomputing it, and that Snippet(n) reads
// the same for every n as on a document that never entered a store.
func TestStoredSnippetComputedOnce(t *testing.T) {
	body := strings.Repeat("  lorem\tipsum dolor\n", 40)
	s := NewStore()
	stored, err := s.Add(&Document{Name: "a.txt", Body: body})
	if err != nil {
		t.Fatal(err)
	}
	loose := &Document{Body: body}
	for _, n := range []int{1, 9, SnippetLen - 1, SnippetLen, SnippetLen + 1, 10000} {
		if got, want := stored.Snippet(n), loose.Snippet(n); got != want {
			t.Fatalf("stored Snippet(%d) = %q, want %q", n, got, want)
		}
	}
	if allocs := testing.AllocsPerRun(20, func() { stored.Snippet(SnippetLen) }); allocs != 0 {
		t.Fatalf("stored Snippet(SnippetLen) made %v allocations, want 0", allocs)
	}
}

func TestParseText(t *testing.T) {
	d, err := Parse("notes.txt", []byte("\n\nFirst line title\nbody text here"))
	if err != nil {
		t.Fatal(err)
	}
	if d.Title != "First line title" {
		t.Fatalf("title = %q", d.Title)
	}
	if !strings.Contains(d.Body, "body text here") {
		t.Fatalf("body = %q", d.Body)
	}
}

func TestParseHTML(t *testing.T) {
	html := `<html><head><title>P2P &amp; IR</title>
	<style>body { color: red }</style>
	<script>var x = "<ignored>";</script></head>
	<body><h1>Heading</h1><p>peer to peer</p></body></html>`
	d, err := Parse("page.html", []byte(html))
	if err != nil {
		t.Fatal(err)
	}
	if d.Title != "P2P & IR" {
		t.Fatalf("title = %q", d.Title)
	}
	if strings.Contains(d.Body, "color") || strings.Contains(d.Body, "var x") {
		t.Fatalf("style/script leaked into body: %q", d.Body)
	}
	if !strings.Contains(d.Body, "Heading") || !strings.Contains(d.Body, "peer to peer") {
		t.Fatalf("body = %q", d.Body)
	}
}

func TestParseHTMLWordBoundaries(t *testing.T) {
	d, err := Parse("x.html", []byte("<p>alpha</p><p>beta</p>"))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(d.Body, "alphabeta") {
		t.Fatalf("adjacent blocks fused: %q", d.Body)
	}
}

func TestParseAlvisXML(t *testing.T) {
	src := `<alvis-document>
  <url>http://example.org/video.mp4</url>
  <title>Demo video</title>
  <content>A recorded demonstration of distributed retrieval.</content>
</alvis-document>`
	d, err := Parse("video.xml", []byte(src))
	if err != nil {
		t.Fatal(err)
	}
	if d.URL != "http://example.org/video.mp4" || d.Title != "Demo video" {
		t.Fatalf("parsed = %+v", d)
	}
	if !strings.Contains(d.Body, "distributed retrieval") {
		t.Fatalf("body = %q", d.Body)
	}
}

func TestParseAlvisXMLErrors(t *testing.T) {
	if _, err := Parse("bad.xml", []byte("not xml at all <")); err == nil {
		t.Fatal("malformed xml must error")
	}
	if _, err := Parse("empty.xml", []byte("<alvis-document></alvis-document>")); err == nil {
		t.Fatal("empty alvis document must error")
	}
}

func TestAlvisXMLRoundTrip(t *testing.T) {
	d := &Document{Title: "T", Body: "some content", URL: "http://x/y"}
	enc, err := EncodeAlvisXML(d)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseAlvisXML("f.xml", enc)
	if err != nil {
		t.Fatal(err)
	}
	if got.Title != "T" || got.URL != "http://x/y" || !strings.Contains(got.Body, "some content") {
		t.Fatalf("round trip = %+v", got)
	}
}

func TestDigestRoundTrip(t *testing.T) {
	a := textproc.NewAnalyzer(textproc.AnalyzerConfig{})
	documents := []*Document{
		{Name: "d1", Title: "Peer retrieval", Body: "peers retrieve documents from peers", URL: "http://h/d1"},
		{Name: "d2", Title: "Indexing", Body: "distributed indexing of text", URL: "http://h/d2"},
	}
	dg := BuildDigest(documents, a)
	if len(dg.Documents) != 2 {
		t.Fatalf("digest docs = %d", len(dg.Documents))
	}

	var buf bytes.Buffer
	if err := WriteDigest(&buf, dg); err != nil {
		t.Fatal(err)
	}
	back, err := ReadDigest(&buf)
	if err != nil {
		t.Fatal(err)
	}
	rebuilt, err := DigestToDocuments(back)
	if err != nil {
		t.Fatal(err)
	}
	if len(rebuilt) != 2 {
		t.Fatalf("rebuilt docs = %d", len(rebuilt))
	}
	// The key property: re-analyzing the synthesized bodies reproduces the
	// original term/position index.
	for i, orig := range documents {
		origToks := a.Tokens(orig.Body)
		gotToks := a.Tokens(rebuilt[i].Body)
		if len(origToks) != len(gotToks) {
			t.Fatalf("doc %d: token count %d != %d", i, len(gotToks), len(origToks))
		}
		for j := range origToks {
			if origToks[j] != gotToks[j] {
				t.Fatalf("doc %d token %d: %+v != %+v", i, j, gotToks[j], origToks[j])
			}
		}
	}
}

func TestDigestPositionParsing(t *testing.T) {
	term := DigestTerm{Name: "x", Positions: "1 5 9"}
	got, err := term.PositionList()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[2] != 9 {
		t.Fatalf("positions = %v", got)
	}
	for _, bad := range []string{"1 x", "-2", "1 2 3four"} {
		if _, err := (DigestTerm{Positions: bad}).PositionList(); err == nil {
			t.Errorf("positions %q must fail", bad)
		}
	}
}

func TestDigestRejectsCorruptPositions(t *testing.T) {
	dg := &Digest{Documents: []DigestDoc{{URL: "u", Terms: []DigestTerm{{Name: "a", Positions: "bad"}}}}}
	if _, err := DigestToDocuments(dg); err == nil {
		t.Fatal("corrupt digest must be rejected")
	}
}
