package globalindex

import (
	"context"

	"repro/internal/postings"
)

// A single key is a batch of one: the index exports only the Multi
// operations, and these helpers spell the one-item slices for the tests.

func putOne(ctx context.Context, ix *Index, terms []string, list *postings.List, bound int) (int, error) {
	return appendOne(ctx, ix, terms, list, bound, 0)
}

func appendOne(ctx context.Context, ix *Index, terms []string, list *postings.List, bound, announcedDF int) (int, error) {
	ns, err := ix.MultiAppend(ctx, []AppendItem{{Terms: terms, List: list, Bound: bound, AnnouncedDF: announcedDF}}, 1)
	return ns[0], err
}

func getOne(ctx context.Context, ix *Index, terms []string, maxResults int, policy ReadPolicy, opts ...ReadOption) (*postings.List, bool, bool, error) {
	res, err := ix.MultiGet(ctx, []GetItem{{Terms: terms, MaxResults: maxResults}}, 1, policy, opts...)
	return res[0].List, res[0].Found, res[0].WantIndex, err
}

func keyInfoOne(ctx context.Context, ix *Index, terms []string) (df int64, present, truncated bool, err error) {
	res, err := ix.MultiKeyInfo(ctx, []KeyInfoItem{{Terms: terms}}, 1)
	return res[0].DF, res[0].Present, res[0].Truncated, err
}
