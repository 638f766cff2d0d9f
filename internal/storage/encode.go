package storage

import (
	"slices"

	"bdcc/internal/vector"
)

// This file is what is about tables in the lightweight columnar compression
// layer; the chunk itself — its encodings, the modeled-cost race that picks
// one, its expansion and its byte form — is internal/vector's. Chunks are
// page-aligned at the column's raw width (one chunk of int64 values spans
// exactly one uncompressed 32 KB page), string chunks share one column-wide
// dictionary, and the encoded byte total feeds the modeled column width, so
// page charges, Algorithm 1's densest-column granularity choice, and the
// grid's mb_read all see post-compression bytes. Encodings are exact, which
// is what lets the equivalence oracle demand byte-identical query results
// with compression on and off. See docs/STORAGE.md for the format and cost
// model.

// The chunk and its encodings, under the names storage has always used.
type (
	Chunk    = vector.Chunk
	Encoding = vector.Encoding
)

const (
	EncRaw  = vector.EncRaw
	EncRLE  = vector.EncRLE
	EncDict = vector.EncDict
	EncFOR  = vector.EncFOR

	maxDictEntries = vector.MaxDictEntries
)

// ColumnEncoding is the encoded form of one column: uniform chunk
// granularity, the chunk list, and the column-wide sorted dictionary its
// dict chunks share. The modeled totals drive the column's encoded width.
type ColumnEncoding struct {
	ChunkRows int
	Chunks    []Chunk

	// Dict is the column's sorted dictionary (string columns only; nil when
	// no chunk dictionary-encodes). Sorted order makes code order equal
	// value order, so range predicates evaluate on codes directly.
	Dict      []string
	DictBits  uint8
	DictBytes int64

	// RawBytes is the modeled uncompressed size (rows at raw width);
	// EncodedBytes is the chunk total plus the dictionary (charged once).
	RawBytes     int64
	EncodedBytes int64
	// Counts tallies chunks per encoding, indexed by Encoding.
	Counts [vector.NumEncodings]int64

	// strs holds the bytes of the strings the dictionary and the chunks keep
	// when no raw chunk windows the column's heap (ownStrings).
	strs []byte
}

// encodeColumn builds the encoded form of the n rows of a column of kind at
// the given chunk granularity (rows per uncompressed page, so chunks are
// page-aligned at raw width), and returns a string column's offsets (as
// strOffsets gives them). own, when it has rows or holds strings, is those
// rows as one raw chunk, of which raw chunks are windows; else the rows are
// column ci of v's table. A number column's are read a chunk at a time into
// one scratch vector, and a chunk that stays raw keeps a copy. A string
// column's are numbered from the codes of v's root when it holds the column
// with a dictionary (dictCodes), which copies and hashes no string; else, or
// when a chunk comes out raw (it windows a heap), they are read into one heap,
// since a dictionary needs every value before the first chunk. par, when not
// nil, is the encoding of a column whose rows [0, inPlace) this one holds at
// the same rows: its whole packed chunks there are kept when the chunks are as
// long and the dictionary is par's (or neither has one). Those are exactly the
// chunks encoding would build: a chunk's encoding depends only on its values
// and, for strings, on the dictionary's codes and width — and a chunk of a
// column whose viable dictionary settleDict dropped did not dictionary-encode.
// Nothing of par's values may stay reachable: a kept dictionary chunk's bounds
// become entries of the new dictionary, and raw chunks and string chunks of
// other encodings (their values views) are encoded again. A string column with
// no raw chunk owns its strings (ownStrings).
func encodeColumn(kind vector.Kind, own Chunk, v *view, ci, n, chunkRows int, par *ColumnEncoding, inPlace int) (*ColumnEncoding, []uint32) {
	e := &ColumnEncoding{ChunkRows: chunkRows, Chunks: make([]Chunk, (n+chunkRows-1)/chunkRows), RawBytes: 8 * int64(n)}
	var codes, offs []uint32 // per-row dictionary codes (nil: no dictionary); a string column's offsets
	if kind == vector.String && n > 0 {
		dict := dictScratch.Get().(*vector.StrDict)
		defer dictScratch.Put(dict) // once the chunks are built: codes are its IDs
		if own.ValS.Len() == 0 {
			if e.Dict, e.DictBits, e.DictBytes, offs = v.dictCodes(ci, n, dict); e.Dict == nil {
				own = gatherStrings(v, ci, kind, n, v.strBytes(ci, n))
			}
		}
		if codes = dict.IDs; e.Dict == nil { // not numbered by dictCodes: number own's values
			e.Dict, codes, e.DictBits, e.DictBytes = dict.ColumnDict(own.ValS)
			offs = own.ValS.Offs
		}
		e.RawBytes = int64(offs[n] - offs[0])
	}
	kept := 0
	if par != nil && par.ChunkRows == chunkRows && slices.Equal(e.Dict, par.Dict) {
		kept = inPlace / chunkRows
	}
	buf, k := &vector.Vector{Kind: kind}, 0
	for i := range e.Chunks {
		ch := &e.Chunks[i]
		start := i * chunkRows
		end := min(start+chunkRows, n)
		switch {
		case i < kept && par.Chunks[i].Enc != EncRaw && (kind != vector.String || par.Chunks[i].Enc == EncDict):
			*ch = par.Chunks[i]
			if ch.Enc == EncDict { // its bounds become entries of the dictionary
				lo, _ := slices.BinarySearch(e.Dict, ch.MinS)
				hi, _ := slices.BinarySearch(e.Dict, ch.MaxS)
				ch.MinS, ch.MaxS = e.Dict[lo], e.Dict[hi]
			}
		case kind == vector.String:
			var h vector.Heap
			if own.ValS.Len() > 0 {
				h = own.ValS.Window(start, end)
			}
			var chunkCodes []uint32
			if codes != nil {
				chunkCodes = codes[start:end]
			}
			if ch.EncodeStr(h, chunkCodes, e.Dict, e.DictBits); ch.Enc == EncRaw && h.Len() == 0 {
				return encodeColumn(kind, gatherStrings(v, ci, kind, n, int(offs[n])), v, ci, n, chunkRows, par, inPlace)
			}
		case own.Rows == 0: // read into the scratch, of which a raw chunk keeps a copy
			buf.Reset()
			if k = v.read(ci, start, end, k, buf); kind == vector.Int64 {
				ch.EncodeI64(buf.I64)
			} else {
				ch.EncodeF64(buf.F64)
			}
			ch.ValI, ch.ValF = slices.Clone(ch.ValI), slices.Clone(ch.ValF)
		case kind == vector.Int64:
			ch.EncodeI64(own.ValI[start:end])
		default:
			ch.EncodeF64(own.ValF[start:end])
		}
		ch.Start = start
		e.EncodedBytes += ch.Bytes
		e.Counts[ch.Enc]++
	}
	e.settleDict()
	if kind == vector.String && e.Counts[EncRaw] == 0 {
		e.ownStrings()
	}
	return e, offs
}

// gatherStrings reads a string column encodeColumn cannot number from codes
// into one heap; tests wrap it to see which columns it reads.
var gatherStrings = (*view).column

// ownStrings copies the strings e keeps — dictionary entries, run values,
// bounds — into bytes of its own (strs), so that an encoding with no raw
// chunk holds no view of the heap it was encoded from and that heap can go.
func (e *ColumnEncoding) ownStrings() {
	var kept []*string
	for i := range e.Dict {
		kept = append(kept, &e.Dict[i])
	}
	for k := range e.Chunks {
		ch := &e.Chunks[k]
		kept = append(kept, &ch.MinS, &ch.MaxS)
		for r := range ch.RunS {
			kept = append(kept, &ch.RunS[r])
		}
	}
	size := 0
	for _, s := range kept {
		size += len(*s)
	}
	h := vector.MakeHeap(len(kept), size)
	for i, s := range kept {
		h.Append(*s)
		*s = h.At(i)
	}
	e.strs = h.Bytes
}

// settleDict charges the dictionary to the column once its chunks are all
// known, or drops one no chunk uses.
func (e *ColumnEncoding) settleDict() {
	if e.Counts[EncDict] > 0 {
		e.EncodedBytes += e.DictBytes
	} else {
		e.Dict, e.DictBits, e.DictBytes = nil, 0, 0
	}
}

// rows returns the number of values the chunks cover (none on a view's
// columns, which have no encoding).
func (e *ColumnEncoding) rows() int {
	if e == nil || len(e.Chunks) == 0 {
		return 0
	}
	last := &e.Chunks[len(e.Chunks)-1]
	return last.Start + last.Rows
}

// chunkIndex returns the chunk covering row r.
func (e *ColumnEncoding) chunkIndex(r int) int { return r / e.ChunkRows }
