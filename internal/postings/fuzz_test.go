package postings

import (
	"bytes"
	"testing"
)

// FuzzDecodeBytes drives the list decoder — one entry point for the
// exact and the quantized frame — with arbitrary byte strings. Torn or
// corrupted frames must return an error; a panic or a hang is a bug. For
// a frame that does decode to l, the exact encoding is a fixed point:
// EncodeBytes(DecodeBytes(EncodeBytes(l))) equals EncodeBytes(l) byte for
// byte, and the quantized encoding of l decodes to a list of l's shape.
func FuzzDecodeBytes(f *testing.F) {
	empty := &List{}
	small := &List{Truncated: true}
	small.Add(Posting{Ref: DocRef{Peer: "seed-peer:1", Doc: 7}, Score: 2.25})
	small.Add(Posting{Ref: DocRef{Peer: "seed-peer:1", Doc: 9}, Score: 1.5})
	small.Add(Posting{Ref: DocRef{Peer: "other:2", Doc: 1}, Score: 3})
	small.Normalize()
	for _, l := range []*List{empty, small, randomList(21, 40)} {
		f.Add(l.EncodeBytes())
		f.Add(l.EncodeBytesCompressed())
	}
	f.Add([]byte{})
	f.Add([]byte{0xC2}) // the retired compressed-format marker
	f.Add([]byte{0xFF, 0x00})
	// An exact list as a WAL append record carries it (a truncated
	// publisher delta), and a quantized chunk as a streamed read ships it
	// (a bounded prefix of a stored list).
	journal := &List{Truncated: true}
	for d := uint32(0); d < 12; d++ {
		journal.Add(Posting{Ref: DocRef{Peer: "publisher:7", Doc: 3 * d}, Score: float64(d%5) + 0.125})
	}
	journal.Normalize()
	f.Add(journal.EncodeBytes())
	chunk := randomList(22, 64)
	chunk.Truncate(16)
	f.Add(chunk.EncodeBytesCompressed())
	// A group whose second gap carries the document number past 2^32−1.
	f.Add(gapFrame(nil, 5, 1<<32))

	f.Fuzz(func(t *testing.T, data []byte) {
		l, err := DecodeBytes(data)
		if err != nil {
			return
		}
		enc := l.EncodeBytes()
		l2, err := DecodeBytes(enc)
		if err != nil {
			t.Fatalf("re-decoding own exact encoding failed: %v", err)
		}
		if again := l2.EncodeBytes(); !bytes.Equal(again, enc) {
			t.Fatalf("exact round trip is not a fixed point:\n first % x\nsecond % x", enc, again)
		}
		lq, err := DecodeBytes(l.EncodeBytesCompressed())
		if err != nil {
			t.Fatalf("re-decoding own quantized encoding failed: %v", err)
		}
		if lq.Len() != l.Len() || lq.Truncated != l.Truncated {
			t.Fatalf("quantized re-decode changed shape: %d/%v vs %d/%v",
				lq.Len(), lq.Truncated, l.Len(), l.Truncated)
		}
	})
}
