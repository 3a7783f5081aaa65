package net

import (
	"encoding/binary"
	"io"
)

// Wire format: every frame is a 5-byte header — 1 type byte, 4-byte
// big-endian payload length — followed by the payload. The type byte is the
// application's: the transport adds no frames of its own.
const headerSize = 5

// appendFrame appends one encoded frame to dst and returns it.
func appendFrame(dst []byte, typ byte, payload []byte) []byte {
	dst = append(dst, typ)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(payload)))
	return append(dst, payload...)
}

// readFrame reads one frame from r, reusing buf for the payload when it has
// capacity. The returned payload aliases the (possibly grown) buffer, which
// is also returned for reuse. A buffer that must grow at least doubles, up to
// the frame limit, so a run of ever larger frames costs a few allocations,
// not one each. A length header beyond lim.MaxFrame is a *FrameError;
// transport failures are returned as-is for the caller to classify.
func readFrame(r io.Reader, lim Limits, buf []byte) (typ byte, payload, newBuf []byte, err error) {
	// The header is read into the payload buffer, which the payload then
	// overwrites: a header array of its own escapes to the heap through
	// the io.Reader, one allocation per frame.
	if cap(buf) < headerSize {
		buf = make([]byte, headerSize)
	}
	hdr := buf[:headerSize]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return 0, nil, buf, err
	}
	typ = hdr[0]
	// Compared in int64: on a 32-bit platform int(n) of a length with the
	// top bit set is negative and would pass the limit.
	size := int64(binary.BigEndian.Uint32(hdr[1:]))
	if size > int64(lim.maxFrame()) {
		return 0, nil, buf, &FrameError{Reason: "payload exceeds frame limit", Size: size}
	}
	n := int(size)
	if cap(buf) < n {
		buf = make([]byte, n, min(max(n, 2*cap(buf)), lim.maxFrame()))
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		// A truncated payload after a valid header: the stream died
		// mid-frame. Report as I/O, the conn layer classifies it.
		return 0, nil, buf, err
	}
	return typ, buf, buf, nil
}
