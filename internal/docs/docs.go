// Package docs implements AlvisP2P's document layer: the document model,
// the shared-documents manager with per-document access rights (paper §4
// "Document access"), format parsing (plain text, HTML, and the Alvis XML
// document format), and the Alvis *document digest* — the XML index
// representation that lets an external search engine publish its
// collection through a peer (paper §4 "Heterogeneity support").
package docs

import (
	"fmt"
	"sort"
	"sync"
)

// Access describes who may fetch a document's content from its hosting
// peer. Search results always expose title/snippet; the content itself is
// guarded (paper §4: "freely accessible or has a limited access
// controlled by a username and a password").
type Access struct {
	Public   bool
	User     string
	Password string
}

// Authorize reports whether the given credentials may read the document.
func (a Access) Authorize(user, password string) bool {
	if a.Public {
		return true
	}
	return user != "" && user == a.User && password == a.Password
}

// Document is one locally-held document. Documents never leave their
// owner; the network holds only index entries referring to them.
type Document struct {
	ID     uint32 // peer-local number, assigned by the Store
	Name   string // file name within the shared directory
	Title  string
	Body   string // extracted text used for indexing and snippets
	URL    string // original URL for externally published documents
	Access Access

	// snippet is Snippet(SnippetLen), computed once when the Store
	// admits the document; snipped says it is set.
	snippet string
	snipped bool
}

// SnippetLen is the snippet length, in runes, results are presented with.
const SnippetLen = 160

// Snippet returns the first n runes of the body with whitespace collapsed,
// for result presentation. A stored document answers n == SnippetLen
// from the snippet computed when it was added.
func (d *Document) Snippet(n int) string {
	if d.snipped && n == SnippetLen {
		return d.snippet
	}
	return snippet(d.Body, n)
}

func snippet(body string, n int) string {
	out := make([]rune, 0, n)
	space := false
	for _, r := range body {
		if r == ' ' || r == '\n' || r == '\t' || r == '\r' {
			space = len(out) > 0
			continue
		}
		if space {
			out = append(out, ' ')
			space = false
		}
		out = append(out, r)
		if len(out) >= n {
			break
		}
	}
	return string(out)
}

// Store is the shared-documents manager: the peer-local registry of
// everything the user has dropped into the shared directory. It is safe
// for concurrent use.
type Store struct {
	mu     sync.RWMutex
	docs   map[uint32]*Document
	byName map[string]uint32
	nextID uint32
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{docs: make(map[uint32]*Document), byName: make(map[string]uint32)}
}

// Add registers a document and assigns its local ID. Adding a document
// whose Name is already present replaces the previous version (same ID),
// mirroring a file overwrite in the shared directory.
func (s *Store) Add(d *Document) (*Document, error) {
	if d == nil {
		return nil, fmt.Errorf("docs: nil document")
	}
	if d.Name == "" {
		return nil, fmt.Errorf("docs: document needs a name")
	}
	cp := *d
	cp.snippet, cp.snipped = snippet(cp.Body, SnippetLen), true
	s.mu.Lock()
	defer s.mu.Unlock()
	if id, exists := s.byName[cp.Name]; exists {
		cp.ID = id
	} else {
		cp.ID = s.nextID
		s.nextID++
		s.byName[cp.Name] = cp.ID
	}
	s.docs[cp.ID] = &cp
	return &cp, nil
}

// Get returns the document with the given local ID, or nil.
func (s *Store) Get(id uint32) *Document {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.docs[id]
}

// GetByName returns the document with the given name, or nil.
func (s *Store) GetByName(name string) *Document {
	s.mu.RLock()
	defer s.mu.RUnlock()
	id, ok := s.byName[name]
	if !ok {
		return nil
	}
	return s.docs[id]
}

// Remove deletes a document. It reports whether the document existed.
func (s *Store) Remove(id uint32) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	d, ok := s.docs[id]
	if !ok {
		return false
	}
	delete(s.docs, id)
	delete(s.byName, d.Name)
	return true
}

// SetAccess updates a document's access policy.
func (s *Store) SetAccess(id uint32, a Access) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	d, ok := s.docs[id]
	if !ok {
		return false
	}
	d.Access = a
	return true
}

// Authorize reports whether credentials may read document id. Unknown
// documents are unauthorized.
func (s *Store) Authorize(id uint32, user, password string) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	d, ok := s.docs[id]
	return ok && d.Access.Authorize(user, password)
}

// List returns all documents ordered by ID.
func (s *Store) List() []*Document {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]*Document, 0, len(s.docs))
	for _, d := range s.docs {
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Len returns the number of stored documents.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.docs)
}
