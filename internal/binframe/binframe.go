// Package binframe is the framing shared by the repo's two binary
// formats, the profile store's FZPR entries (internal/profiler) and the
// FZEV external profiles (internal/profilefmt):
//
//	magic | uvarint version | payload | crc32-Castagnoli (4 bytes LE)
//
// The checksum covers everything before it, so truncation and bit rot
// are detected before any payload field is trusted. Castagnoli is
// hardware-accelerated on amd64/arm64 (~15 GB/s vs ~1.4 GB/s for crc64),
// which matters because checksumming is the dominant cost of a disk-warm
// read of a large store entry.
//
// Each format keeps its own sentinel errors and passes them in through
// Format, so errors.Is and the error texts stay those of the format.
// Limit checks that belong to one format stay in that format's package.
package binframe

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// Table is the CRC-32C table both formats checksum with.
var Table = crc32.MakeTable(crc32.Castagnoli)

// Format names one framed encoding and the errors its checks wrap.
type Format struct {
	Magic   string
	Version uint64
	// Noun names one encoded unit in error texts ("entry", "profile").
	Noun string
	// Corrupt is wrapped by length, magic, checksum and truncation
	// failures; Unsupported by a version mismatch.
	Corrupt, Unsupported error
}

// Header appends the magic and the version to buf.
func (f *Format) Header(buf []byte) []byte {
	buf = append(buf, f.Magic...)
	return binary.AppendUvarint(buf, f.Version)
}

// Seal appends the checksum of everything in buf, closing the frame.
func Seal(buf []byte) []byte {
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, Table))
}

// AppendString writes s as a uvarint length and its bytes.
func AppendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// Open checks data's length, magic and checksum, then its version, and
// returns a decoder over the payload between the version and the
// checksum.
func (f *Format) Open(data []byte) (Decoder, error) {
	if len(data) < len(f.Magic)+1+4 {
		return Decoder{}, fmt.Errorf("%w: %d bytes is shorter than any %s", f.Corrupt, len(data), f.Noun)
	}
	if string(data[:len(f.Magic)]) != f.Magic {
		return Decoder{}, fmt.Errorf("%w: bad magic", f.Corrupt)
	}
	body, footer := data[:len(data)-4], data[len(data)-4:]
	if sum := crc32.Checksum(body, Table); sum != binary.LittleEndian.Uint32(footer) {
		return Decoder{}, fmt.Errorf("%w: checksum mismatch", f.Corrupt)
	}
	d := Decoder{buf: body[len(f.Magic):], corrupt: f.Corrupt}
	if v := d.Uvarint(); v != f.Version {
		return Decoder{}, fmt.Errorf("%w: %s version %d, this build reads %d", f.Unsupported, f.Noun, v, f.Version)
	}
	return d, nil
}

// Decoder walks a payload with a sticky error, so decode code reads
// linearly and truncation is reported once, at the end of a section.
type Decoder struct {
	buf     []byte
	err     error
	corrupt error
}

// Err is the first failure, or nil.
func (d *Decoder) Err() error { return d.err }

// Len is the number of payload bytes not yet read.
func (d *Decoder) Len() int { return len(d.buf) }

// Finish reports the sticky failure, or trailing bytes after a payload
// that should have been read to its end.
func (d *Decoder) Finish() error {
	if d.err != nil {
		return d.err
	}
	if len(d.buf) != 0 {
		return fmt.Errorf("%w: %d trailing bytes", d.corrupt, len(d.buf))
	}
	return nil
}

func (d *Decoder) fail() {
	if d.err == nil {
		d.err = fmt.Errorf("%w: payload truncated", d.corrupt)
	}
}

// Uvarint reads one uvarint.
func (d *Decoder) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	// One-byte fast path: counter deltas, EIP deltas and counts are
	// mostly tiny, so the bulk of a large payload's varints take this
	// branch, and it is measurably what bounds disk-warm read latency.
	if len(d.buf) > 0 && d.buf[0] < 0x80 {
		v := uint64(d.buf[0])
		d.buf = d.buf[1:]
		return v
	}
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		d.fail()
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

// U64 reads one little-endian uint64.
func (d *Decoder) U64() uint64 {
	if d.err != nil {
		return 0
	}
	if len(d.buf) < 8 {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(d.buf)
	d.buf = d.buf[8:]
	return v
}

// Byte reads one byte.
func (d *Decoder) Byte() byte {
	if d.err != nil {
		return 0
	}
	if len(d.buf) < 1 {
		d.fail()
		return 0
	}
	b := d.buf[0]
	d.buf = d.buf[1:]
	return b
}

// String reads a string written by AppendString.
func (d *Decoder) String() string {
	n := d.Uvarint()
	if d.err != nil {
		return ""
	}
	if n > uint64(len(d.buf)) {
		d.fail()
		return ""
	}
	s := string(d.buf[:n])
	d.buf = d.buf[n:]
	return s
}
