package service

import (
	"encoding/binary"
	"iter"
	"math"
	"math/bits"
)

// packedRecords is a finished run's round records, varint-packed. A done
// job and its cache entry hold nothing else of the stream, so a full job
// history keeps ~10 bytes per scalar record instead of the 56 of a
// RoundRecord; the stream endpoint unpacks on demand.
//
// Each record is Round, N, Support, Leader and LeaderCount as zig-zag
// varints, then len(*LeaderPoint)+1 (0 for a nil LeaderPoint) and the
// point's coordinates, then the bits of Absorbed as a uvarint.
type packedRecords struct {
	n   int
	buf []byte
}

// packRecords encodes recs into a buffer of exactly the packed size,
// allocated once.
func packRecords(recs []RoundRecord) packedRecords {
	if len(recs) == 0 {
		return packedRecords{}
	}
	size := 0
	for _, r := range recs {
		size += recordSize(r)
	}
	buf := make([]byte, 0, size)
	for _, r := range recs {
		buf = appendRecord(buf, r)
	}
	return packedRecords{n: len(recs), buf: buf}
}

// recordSize returns the length of r's packing.
func recordSize(r RoundRecord) int {
	n := varintSize(int64(r.Round)) + varintSize(r.N) + varintSize(int64(r.Support)) +
		varintSize(r.Leader) + varintSize(r.LeaderCount)
	if r.LeaderPoint == nil {
		n++
	} else {
		n += uvarintSize(uint64(len(*r.LeaderPoint)) + 1)
		for _, c := range *r.LeaderPoint {
			n += varintSize(c)
		}
	}
	return n + uvarintSize(math.Float64bits(r.Absorbed))
}

// uvarintSize and varintSize return the lengths binary.AppendUvarint and
// binary.AppendVarint write for x.
func uvarintSize(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

func varintSize(x int64) int { return uvarintSize(uint64(x<<1) ^ uint64(x>>63)) }

func appendRecord(buf []byte, r RoundRecord) []byte {
	buf = binary.AppendVarint(buf, int64(r.Round))
	buf = binary.AppendVarint(buf, r.N)
	buf = binary.AppendVarint(buf, int64(r.Support))
	buf = binary.AppendVarint(buf, r.Leader)
	buf = binary.AppendVarint(buf, r.LeaderCount)
	if r.LeaderPoint == nil {
		buf = binary.AppendUvarint(buf, 0)
	} else {
		buf = binary.AppendUvarint(buf, uint64(len(*r.LeaderPoint))+1)
		for _, c := range *r.LeaderPoint {
			buf = binary.AppendVarint(buf, c)
		}
	}
	return binary.AppendUvarint(buf, math.Float64bits(r.Absorbed))
}

// from iterates over the records at index i and after, decoding each as
// it goes.
func (p packedRecords) from(i int) iter.Seq[RoundRecord] {
	return func(yield func(RoundRecord) bool) {
		buf := p.buf
		for k := range p.n {
			var r RoundRecord
			r, buf = decodeRecord(buf)
			if k >= i && !yield(r) {
				return
			}
		}
	}
}

func decodeRecord(buf []byte) (RoundRecord, []byte) {
	next := func() int64 {
		v, n := binary.Varint(buf)
		buf = buf[n:]
		return v
	}
	r := RoundRecord{Round: int(next()), N: next(), Support: int(next()), Leader: next(), LeaderCount: next()}
	lp, n := binary.Uvarint(buf)
	buf = buf[n:]
	if lp > 0 {
		point := make([]int64, lp-1)
		for i := range point {
			point[i] = next()
		}
		r.LeaderPoint = &point
	}
	bits, n := binary.Uvarint(buf)
	r.Absorbed = math.Float64frombits(bits)
	return r, buf[n:]
}
