package service

import (
	"encoding/binary"
	"math"
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

// packRecords encodes recs into a buffer of exactly the packed size.
func packRecords(recs []RoundRecord) packedRecords {
	if len(recs) == 0 {
		return packedRecords{}
	}
	var buf []byte
	for _, r := range recs {
		buf = appendRecord(buf, r)
	}
	packed := make([]byte, len(buf))
	copy(packed, buf)
	return packedRecords{n: len(recs), buf: packed}
}

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

// from decodes the records at index i and after.
func (p packedRecords) from(i int) []RoundRecord {
	if i >= p.n {
		return nil
	}
	out := make([]RoundRecord, 0, p.n-i)
	buf := p.buf
	for k := 0; k < p.n; k++ {
		var r RoundRecord
		r, buf = decodeRecord(buf)
		if k >= i {
			out = append(out, r)
		}
	}
	return out
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
