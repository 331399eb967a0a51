package record

import (
	"encoding/binary"
	"fmt"
	"io"
	"slices"
	"unsafe"
)

// Wire format: 16 bytes per record, little-endian Key then Loc. This is
// the on-disk format of the file-backed disk arrays and of the CLI's
// input/output files.

// EncodedSize is the wire size of one record in bytes.
const EncodedSize = 16

// Encode appends the wire form of r to buf and returns the extended slice.
func Encode(buf []byte, r Record) []byte {
	var tmp [EncodedSize]byte
	binary.LittleEndian.PutUint64(tmp[0:8], r.Key)
	binary.LittleEndian.PutUint64(tmp[8:16], r.Loc)
	return append(buf, tmp[:]...)
}

// Decode reads one record from the first EncodedSize bytes of buf.
func Decode(buf []byte) Record {
	return Record{
		Key: binary.LittleEndian.Uint64(buf[0:8]),
		Loc: binary.LittleEndian.Uint64(buf[8:16]),
	}
}

// EncodeSlice returns the wire form of rs.
func EncodeSlice(rs []Record) []byte {
	return AppendSlice(make([]byte, 0, len(rs)*EncodedSize), rs)
}

// littleEndian reports whether this host stores a uint64 least
// significant byte first. A Record is two uint64s with no padding, so
// there its memory already is its wire form, and the codec is one copy.
var littleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// wireView returns the memory of rs as bytes: on a little-endian host,
// its wire form.
func wireView(rs []Record) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(rs))), len(rs)*EncodedSize)
}

// AppendSlice appends the wire form of rs to buf and returns the extended
// slice.
func AppendSlice(buf []byte, rs []Record) []byte {
	n := len(buf)
	buf = slices.Grow(buf, len(rs)*EncodedSize)[:n+len(rs)*EncodedSize]
	if littleEndian {
		copy(buf[n:], wireView(rs))
	} else {
		encodeLoop(buf[n:], rs)
	}
	return buf
}

// DecodeInto fills dst from the first len(dst)*EncodedSize bytes of buf.
func DecodeInto(dst []Record, buf []byte) {
	buf = buf[:len(dst)*EncodedSize]
	if littleEndian {
		copy(wireView(dst), buf)
	} else {
		decodeLoop(dst, buf)
	}
}

// encodeLoop writes the wire form of rs into buf record by record, on any
// host; the codec uses it where a Record's memory is not its wire form.
func encodeLoop(buf []byte, rs []Record) {
	for i, r := range rs {
		b := buf[i*EncodedSize : (i+1)*EncodedSize]
		binary.LittleEndian.PutUint64(b[0:8], r.Key)
		binary.LittleEndian.PutUint64(b[8:16], r.Loc)
	}
}

// decodeLoop is encodeLoop's inverse.
func decodeLoop(dst []Record, buf []byte) {
	for i := range dst {
		dst[i] = Decode(buf[i*EncodedSize:])
	}
}

// DecodeSlice parses a whole buffer of encoded records.
func DecodeSlice(buf []byte) ([]Record, error) {
	if len(buf)%EncodedSize != 0 {
		return nil, fmt.Errorf("record: %d bytes is not a whole number of records", len(buf))
	}
	out := make([]Record, len(buf)/EncodedSize)
	DecodeInto(out, buf)
	return out, nil
}

// WriteAll writes rs to w in wire form.
func WriteAll(w io.Writer, rs []Record) error {
	if littleEndian {
		_, err := w.Write(wireView(rs))
		return err
	}
	// Stream in modest chunks to avoid a full-size staging buffer.
	const chunk = 4096
	var buf []byte
	for lo := 0; lo < len(rs); lo += chunk {
		buf = AppendSlice(buf[:0], rs[lo:min(lo+chunk, len(rs))])
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}

// ReadAll reads records from r until EOF.
func ReadAll(r io.Reader) ([]Record, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return DecodeSlice(raw)
}
