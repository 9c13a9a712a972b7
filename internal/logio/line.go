package logio

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strings"
)

// MaxLine bounds one line of the text log formats. The schedule and ingress
// text loaders share this limit (historically the schedule loader used the
// 64KB bufio default while the ingress loader allowed 1MB — an asymmetry
// where a long-payload ingress line saved by one tool failed to load in
// another); 1MB comfortably covers any real line of either format.
const MaxLine = 1 << 20

// LineScanner returns a bufio.Scanner guarded to MaxLine, the one line
// reader every text log loader uses.
func LineScanner(r io.Reader) *bufio.Scanner {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), MaxLine)
	return sc
}

// ScanErr converts a scanner error into a loader error, turning the opaque
// bufio.ErrTooLong into an actionable message carrying the limit and the
// offending line number. A nil error passes through.
func ScanErr(err error, format string, line int) error {
	if err == nil {
		return nil
	}
	if errors.Is(err, bufio.ErrTooLong) {
		return fmt.Errorf("%s: line %d exceeds the %d-byte line limit", format, line+1, MaxLine)
	}
	return fmt.Errorf("%s: line %d: %w", format, line+1, err)
}

// ReadHeader consumes the one-line format header every log file starts with,
// text or binary, and returns it trimmed; loaders switch on it to pick a
// decoder. The line is bounded by br's buffer — far beyond any valid header —
// so a header-less binary blob fails fast instead of buffering the file. A
// header with no newline is a valid empty log. what prefixes the errors
// ("trace: schedule", "ingress: log").
func ReadHeader(br *bufio.Reader, what string) (string, error) {
	line, err := br.ReadString('\n')
	switch {
	case err == io.EOF && line != "":
		err = nil
	case err == bufio.ErrBufferFull:
		return "", fmt.Errorf("%s: bad header: first line exceeds %d bytes", what, br.Size())
	case err == io.EOF:
		return "", fmt.Errorf("%s: empty file", what)
	}
	if err != nil {
		return "", fmt.Errorf("%s: reading header: %w", what, err)
	}
	return strings.TrimSpace(line), nil
}
