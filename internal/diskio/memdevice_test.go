package diskio

import "io"

// memDevice is an in-memory Device: a growable byte array with file
// semantics (reads past the end return io.EOF, writes extend).
type memDevice struct{ data []byte }

func (d *memDevice) ReadAt(p []byte, off int64) (int, error) {
	if off >= int64(len(d.data)) {
		return 0, io.EOF
	}
	n := copy(p, d.data[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (d *memDevice) WriteAt(p []byte, off int64) (int, error) {
	if need := off + int64(len(p)); need > int64(len(d.data)) {
		d.data = append(d.data, make([]byte, need-int64(len(d.data)))...)
	}
	return copy(d.data[off:], p), nil
}

func (d *memDevice) Close() error { return nil }
