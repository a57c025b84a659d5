package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"testing/iotest"

	"repro/engine"
)

// refScanReader is scanReader as it was before frames were decoded in
// chunks: one frame read, decoded and applied after another, on one
// goroutine. It is the reference FuzzScanFrames checks scanReader
// against.
func refScanReader(r io.Reader) (frames []frameRec, dropped int64, dirty bool, err error) {
	index := map[string]int{}
	hdr := make([]byte, frameHeaderSize)
	var buf []byte
	for {
		if _, e := io.ReadFull(r, hdr); e != nil {
			switch e {
			case io.EOF:
				return frames, dropped, dirty, nil
			case io.ErrUnexpectedEOF:
				return frames, dropped, true, nil
			default:
				return frames, dropped, dirty, e
			}
		}
		length := binary.LittleEndian.Uint32(hdr)
		crc := binary.LittleEndian.Uint32(hdr[4:])
		if length > maxPayload {
			return frames, dropped + 1, true, nil
		}
		if int(length) > cap(buf) {
			buf = make([]byte, length)
		}
		payload := buf[:length]
		if _, e := io.ReadFull(r, payload); e != nil {
			if e == io.EOF || e == io.ErrUnexpectedEOF {
				return frames, dropped + 1, true, nil
			}
			return frames, dropped, dirty, e
		}
		if crc32.Checksum(payload, castagnoli) != crc {
			return frames, dropped + 1, true, nil
		}
		size := int64(frameHeaderSize) + int64(length)
		run, e := DecodeRun(payload)
		if e != nil || run.SpecHash == "" {
			frames = append(frames, frameRec{
				payload: bytes.Clone(payload),
				oldSpec: errors.Is(e, engine.ErrSpecVersion),
				size:    size,
			})
			continue
		}
		if i, dup := index[run.SpecHash]; dup {
			frames[i] = frameRec{run: &run, decoded: true, size: size}
			dropped++
			dirty = true
			continue
		}
		index[run.SpecHash] = len(frames)
		frames = append(frames, frameRec{run: &run, decoded: true, size: size})
	}
}

// errInjected is the read error FuzzScanFrames injects.
var errInjected = errors.New("injected read error")

// FuzzScanFrames checks scanReader against refScanReader on any framed
// region, any chunk size and a read error at any offset: the same frames,
// deeply equal and in the same order, the same dropped count, the same
// dirty flag and the same error. Its seeds put chunk boundaries between
// duplicates, opaque frames and a corrupt tail.
func FuzzScanFrames(f *testing.F) {
	for _, seed := range scanSeeds(f) {
		for _, chunk := range []uint32{0, 1, 700, 4096, 1 << 20} {
			f.Add(seed, chunk, int64(-1))
		}
		f.Add(seed, uint32(900), int64(len(seed)/2))
	}
	f.Fuzz(func(t *testing.T, framed []byte, chunk uint32, failAt int64) {
		defer func(old int) { chunkPerCPU = old }(chunkPerCPU)
		chunkPerCPU = 1 + int(chunk%(2<<20))
		reader := func() io.Reader {
			if failAt < 0 || failAt > int64(len(framed)) {
				return bytes.NewReader(framed)
			}
			return io.MultiReader(bytes.NewReader(framed[:failAt]), iotest.ErrReader(errInjected))
		}
		frames, dropped, dirty, err := scanReader(reader(), int64(len(framed)))
		want, wantDropped, wantDirty, wantErr := refScanReader(reader())
		if err != wantErr || dropped != wantDropped || dirty != wantDirty {
			t.Fatalf("scan: dropped %d, dirty %v, error %v; reference: dropped %d, dirty %v, error %v",
				dropped, dirty, err, wantDropped, wantDirty, wantErr)
		}
		if !reflect.DeepEqual(frames, want) {
			t.Fatalf("scan returned %d frames that differ from the reference's %d", len(frames), len(want))
		}
	})
}

// scanSeeds returns FuzzScanFrames' seed regions: the frames of both
// golden stores, makeRun's runs written twice over, opaque frames among
// them, and the same regions with a flipped CRC, a truncated tail and an
// oversized declared length.
func scanSeeds(tb testing.TB) [][]byte {
	var golden [][]byte
	for _, name := range []string{"store_format_v1.golden", "store_specv0.golden"} {
		data, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			tb.Fatal(err)
		}
		golden = append(golden, data[headerSize:])
	}
	var mixed []byte
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < 4; i++ {
			run, err := makeRun(i)
			if err != nil {
				tb.Fatal(err)
			}
			payload, err := EncodeRun(run)
			if err != nil {
				tb.Fatal(err)
			}
			mixed = append(mixed, frame(payload)...)
			if i == 1 {
				mixed = append(mixed, frame([]byte(`{"spec_hash":"x","spec":{"kind":"nope"}}`))...)
				mixed = append(mixed, frame([]byte(`{}`))...)
			}
		}
		mixed = append(mixed, bytes.Join(golden, nil)...)
	}
	flipped := bytes.Clone(mixed)
	flipped[len(flipped)/2] ^= 0x40
	oversized := append(bytes.Clone(mixed), 0xff, 0xff, 0xff, 0x7f, 1, 2, 3, 4)
	return [][]byte{
		golden[0], golden[1], bytes.Join(golden, nil), mixed, flipped, mixed[:len(mixed)-5], mixed[:len(mixed)-len(golden[1])-3], oversized, {},
	}
}

// TestScanMatchesSequential checks scanReader against refScanReader on a
// store of bench-shaped runs with duplicates and opaque frames among
// them, at the default chunk size and at small ones, on one and on four
// CPUs.
func TestScanMatchesSequential(t *testing.T) {
	var framed []byte
	for i := range 240 {
		payload, err := EncodeRun(prepRun(t, i%200))
		if err != nil {
			t.Fatal(err)
		}
		framed = append(framed, frame(payload)...)
		if i%37 == 0 {
			framed = append(framed, frame([]byte(`{"spec_hash":"x","spec":{"kind":"nope"}}`))...)
		}
	}
	want, wantDropped, wantDirty, wantErr := refScanReader(bytes.NewReader(framed))
	if wantErr != nil || wantDropped != 40 || !wantDirty {
		t.Fatalf("reference: dropped %d, dirty %v, error %v", wantDropped, wantDirty, wantErr)
	}
	defer func(old int) { chunkPerCPU = old }(chunkPerCPU)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	chunks := []int{chunkPerCPU, 1 << 14, 3000, 1}
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		for _, chunk := range chunks {
			chunkPerCPU = chunk
			frames, dropped, dirty, err := scanReader(bytes.NewReader(framed), int64(len(framed)))
			if err != nil || dropped != wantDropped || dirty != wantDirty || !reflect.DeepEqual(frames, want) {
				t.Errorf("GOMAXPROCS %d, chunk %d: dropped %d, dirty %v, error %v, frames equal %v",
					procs, chunk, dropped, dirty, err, reflect.DeepEqual(frames, want))
			}
		}
	}
}
