// Package ckpt serializes epoch checkpoints: the point-in-time snapshot of a
// deterministic execution that lets a replay start mid-stream (qireplay
// -from-checkpoint) instead of re-executing from the beginning.
//
// A checkpoint file reuses the shared framed container of internal/logio —
//
//	qithread-checkpoint v3b\n
//	frame (gob-encoded Record, DEFLATE under the container's encoding byte)
//	terminator
//
// — so it gets the same CRC32C integrity checking, truncation detection and
// tooling (qistat -v / verify) as the binary schedule and ingress logs. The
// payload is a single encoding/gob frame: a checkpoint is a one-shot record
// of a few kilobytes of counters, hashes and wait-list structure (never
// goroutine stacks, never message values), so the schema flexibility of gob
// beats a hand-rolled field layout and costs nothing on the hot path — there
// is no hot path.
//
// gob matches struct fields by name, and a field the stream does not carry is
// left zero without an error, so a change to what the Record's structs mean
// under a name needs a new header, and Load refuses the old ones by name:
//
//   - v1b listed a subset of the counters flat where core.Stats and
//     ingress.Stats are embedded since v2b; decoded into today's Record it
//     would resume with every counter — the logical time and the lease hash
//     among them — silently zero.
//   - v2b carried each thread's policy state (core.ThreadState.Policy) as the
//     slot words of the policy engine of that time, whose layout depended on
//     the enabled set; since v3b the field is the policy.PerThread struct
//     itself, and no reading of the old words into it is right for every set.
package ckpt

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"

	"qithread/internal/core"
	"qithread/internal/ingress"
	"qithread/internal/logio"
)

const header = "qithread-checkpoint v3b"

// refused maps the headers of the layouts Load no longer reads to what would
// go wrong if it did.
var refused = map[string]string{
	"qithread-checkpoint v1b": "their counter layout would resume with zeroed counters",
	"qithread-checkpoint v2b": "their per-thread policy words do not map onto today's policy state",
}

// Record is everything a resumed run needs beyond the program itself: the
// per-domain scheduler snapshots, the boundary counters, the channel stamp
// state, the ingress gateway state, and an opaque application payload (the
// program's own progress — e.g. per-worker accumulators — which the runtime
// cannot reconstruct).
type Record struct {
	// Epoch is the ingress epoch the checkpoint was taken at (0 for programs
	// without ingress; then it is just a label).
	Epoch int64
	// Domains holds one scheduler snapshot per domain, in domain-id order.
	Domains []core.SchedState
	// Xseqs holds each domain's boundary-operation counter, same order.
	Xseqs []int64
	// Channels holds the cross-domain pipe states in pipe-id order.
	Channels []ChannelState
	// Gateways holds the ingress gateway states in registration order.
	Gateways []ingress.GatewayState
	// App is the application's own serialized progress, restored verbatim.
	App []byte
}

// ChannelState is the checkpointed state of one cross-domain pipe (an
// XPipe): its stamp counters and running delivery hash. A checkpoint is only
// taken with every pipe drained, so no message value ever enters it.
type ChannelState struct {
	ID        uint64
	SendSeq   uint64 // messages ever enqueued
	Delivered uint64 // messages ever delivered
	Hash      uint64 // running delivery hash
	Closed    bool
}

// Save writes the checkpoint record.
func Save(w io.Writer, r *Record) error {
	if _, err := io.WriteString(w, header+"\n"); err != nil {
		return err
	}
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(r); err != nil {
		return fmt.Errorf("ckpt: encoding checkpoint: %w", err)
	}
	fw := logio.NewFrameWriter(w)
	if err := fw.WriteFrame(payload.Bytes(), true); err != nil {
		return err
	}
	return fw.Close()
}

// Load reads a checkpoint record written by Save. Like the log loaders it is
// strict: a bad header, a corrupt frame or trailing frames are errors.
func Load(rd io.Reader) (*Record, error) {
	br := logio.TakeReader(rd)
	defer logio.PutReader(br, rd)
	got, err := logio.ReadHeader(br, "ckpt: checkpoint")
	if err != nil {
		return nil, err
	}
	if why, old := refused[got]; old {
		return nil, fmt.Errorf("ckpt: %q checkpoints are no longer readable (%s); this build reads %q — re-record the run to take a new checkpoint", got, why, header)
	}
	if got != header {
		return nil, fmt.Errorf("ckpt: bad header %q (want %q)", got, header)
	}
	fr := logio.NewFrameReader(br)
	payload, err := fr.Next()
	if err != nil {
		if err == io.EOF {
			return nil, fmt.Errorf("ckpt: checkpoint holds no record")
		}
		return nil, err
	}
	r := &Record{}
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(r); err != nil {
		return nil, fmt.Errorf("ckpt: decoding checkpoint: %w", err)
	}
	if _, err := fr.Next(); err != io.EOF {
		if err == nil {
			return nil, fmt.Errorf("ckpt: trailing frame after the checkpoint record")
		}
		return nil, err
	}
	if len(r.Xseqs) != len(r.Domains) {
		return nil, fmt.Errorf("ckpt: %d xseq counters for %d domains", len(r.Xseqs), len(r.Domains))
	}
	return r, nil
}
