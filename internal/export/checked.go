package export

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"strings"
)

// The checked container is the crash-safe on-disk form of a Snapshot: a
// one-line header naming the payload's exact length and SHA-256, followed
// by the payload. A reader verifies both before decoding, so a truncated
// write, a bit flip or a concatenated tail is detected as corruption
// instead of being half-trusted — the contract the store's
// quarantine-and-continue warm restart depends on.
//
//	ptrsnap2 <64 hex sha256> <decimal payload bytes>\n
//	{ ...compact set-table JSON (see wire.go)... }
//
// WriteSnapshotChecked writes only ptrsnap2. ReadSnapshotChecked also reads
// the two older forms, so a daemon restarted onto an old spill directory
// warm-starts from it: ptrsnap1 containers (the same header over the
// plain-JSON Snapshot document) and headerless plain-JSON files from
// pre-checksum daemons. For headerless files structural corruption is
// still caught by the JSON decoder and the version check, but content
// corruption inside string values is not.

const (
	// checkedMagic opens every container header line WriteSnapshotChecked
	// writes.
	checkedMagic = "ptrsnap2"
	// checkedMagicV1 opens the header of older plain-JSON containers.
	checkedMagicV1 = "ptrsnap1"
)

// ErrCorrupt tags a checked-container read that failed verification
// (truncation, checksum mismatch, malformed header, undecodable payload or
// wrong wire version). Callers quarantine on it.
type CorruptError struct {
	Reason string
}

func (e *CorruptError) Error() string { return "export: corrupt snapshot: " + e.Reason }

func corruptf(format string, args ...any) error {
	return &CorruptError{Reason: fmt.Sprintf(format, args...)}
}

// WriteSnapshotChecked writes s in the checked container format: header
// line, then the ptrsnap2 payload the header vouches for.
func WriteSnapshotChecked(w io.Writer, s *Snapshot) error {
	payload, err := encodeV2(s)
	if err != nil {
		return err
	}
	sum := sha256.Sum256(payload)
	if _, err := fmt.Fprintf(w, "%s %s %d\n", checkedMagic, hex.EncodeToString(sum[:]), len(payload)); err != nil {
		return err
	}
	_, err = w.Write(payload)
	return err
}

// ReadSnapshotChecked reads one snapshot from a checked container,
// verifying length and digest before decoding. A headerless stream falls
// back to the legacy plain-JSON decoder. Every verification failure is a
// *CorruptError, so callers can distinguish "corrupt file" (quarantine it)
// from I/O errors (leave it alone and report).
func ReadSnapshotChecked(r io.Reader) (*Snapshot, error) {
	br := bufio.NewReader(r)
	peek, err := br.Peek(len(checkedMagic) + 1)
	if err != nil {
		// Shorter than any header: either a legacy JSON document small
		// enough to fit ("{}"), or garbage. Let the legacy path decide.
		return readLegacy(br)
	}
	magic := string(peek[:len(checkedMagic)])
	if (magic != checkedMagic && magic != checkedMagicV1) || peek[len(checkedMagic)] != ' ' {
		return readLegacy(br)
	}
	header, err := br.ReadString('\n')
	if err != nil {
		return nil, corruptf("truncated header")
	}
	fields := strings.Fields(strings.TrimSuffix(header, "\n"))
	if len(fields) != 3 {
		return nil, corruptf("malformed header %q", header)
	}
	wantSum, err := hex.DecodeString(fields[1])
	if err != nil || len(wantSum) != sha256.Size {
		return nil, corruptf("malformed digest %q", fields[1])
	}
	var length int64
	if _, err := fmt.Sscanf(fields[2], "%d", &length); err != nil || length < 0 {
		return nil, corruptf("malformed length %q", fields[2])
	}
	// The declared length is untrusted until the digest checks out, so the
	// buffer grows with the bytes actually present rather than being sized
	// from the header.
	var buf bytes.Buffer
	if _, err := io.CopyN(&buf, br, length); err != nil {
		return nil, corruptf("truncated payload: %v", err)
	}
	payload := buf.Bytes()
	// Trailing bytes beyond the declared length mean the file is not what
	// the header vouches for (e.g. two writes interleaved).
	if _, err := br.ReadByte(); err != io.EOF {
		return nil, corruptf("trailing bytes after declared payload")
	}
	if sum := sha256.Sum256(payload); !bytes.Equal(sum[:], wantSum) {
		return nil, corruptf("checksum mismatch")
	}
	// The digest matched, so the bytes are exactly what was written — but
	// a wrong version, a bad table (or a header glued onto a non-snapshot)
	// is still not servable.
	var snap *Snapshot
	if magic == checkedMagic {
		snap, err = decodeV2(payload)
	} else {
		snap, err = ReadSnapshot(bytes.NewReader(payload))
	}
	if err != nil {
		return nil, corruptf("%v", err)
	}
	return snap, nil
}

// readLegacy decodes a headerless (pre-checksum) spill file.
func readLegacy(r io.Reader) (*Snapshot, error) {
	snap, err := ReadSnapshot(r)
	if err != nil {
		return nil, corruptf("%v", err)
	}
	return snap, nil
}
