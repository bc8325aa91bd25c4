package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"

	"neurocard/internal/query"
)

// ContentTypeBinary selects the compact length-prefixed binary protocol on
// POST /v1/estimate. Requests and responses share a 5-byte header (magic
// "NCB", version, flags); queries travel in the canonical query.AppendKey
// encoding (the plan-cache key bytes), results as fixed-width little-endian
// float64s. Error responses to malformed or rejected requests remain JSON
// with a non-200 status — clients check the status code before parsing.
const ContentTypeBinary = "application/x-neurocard-bin"

// Binary frame layout, version 1.
//
// Request:
//
//	[3]byte  magic "NCB"
//	byte     version (1)
//	byte     flags: bit0 = seeded (8-byte seed follows the model name)
//	uvarint  model name length, then that many bytes ("" = default model)
//	int64    seed, little-endian (only when flags bit0 is set)
//	uvarint  nQueries (≥ 1)
//	nQueries × query.AppendKey encodings
//
// Response (status 200 only):
//
//	[3]byte  magic "NCB"
//	byte     version (1)
//	byte     flags: bit0 = per-query error strings present,
//	         bit1 = degraded (served by the fallback estimator)
//	uvarint  model name length + bytes (the serving model)
//	uvarint  nResults
//	nResults × float64 estimates, little-endian (0 where that query errored)
//	flags bit0: nResults × (uvarint length + bytes) error strings ("" = ok)
//
// A request of n queries has single-request semantics when n == 1 (it runs
// on an estimate lane like a JSON "query") and batch semantics when
// n > 1 (query i draws randomness from (seed, i), exactly like JSON
// "queries"), so the two protocols are result-identical for the same seed.
const (
	binMagic   = "NCB"
	binVersion = 1

	binFlagSeeded    = 1 << 0 // request: seed field present
	binFlagErrors    = 1 << 0 // response: per-query error section present
	binFlagDegraded  = 1 << 1 // response: served by the fallback estimator
	binHeaderLen     = len(binMagic) + 2
	maxBinModelBytes = 1 << 10
)

var errBinHeader = errors.New("server: not a binary estimate frame (want magic \"NCB\" version 1)")

// BinRequest is the decoded form of a binary estimate request.
type BinRequest struct {
	Model   string
	Seed    *int64
	Queries []query.Query
}

// BinResponse is the decoded form of a binary estimate response. Errs is nil
// when every query succeeded; otherwise it is positionally aligned with Ests
// and holds "" for the queries that succeeded. Degraded marks estimates
// served by the fallback estimator rather than the neural model.
type BinResponse struct {
	Model    string
	Ests     []float64
	Errs     []string
	Degraded bool
}

// appendBinHeader writes the shared frame header.
func appendBinHeader(dst []byte, flags byte) []byte {
	dst = append(dst, binMagic...)
	return append(dst, binVersion, flags)
}

// readBinHeader validates the shared frame header and returns the flags.
func readBinHeader(b []byte) (flags byte, rest []byte, err error) {
	if len(b) < binHeaderLen || string(b[:len(binMagic)]) != binMagic {
		return 0, nil, errBinHeader
	}
	if v := b[len(binMagic)]; v != binVersion {
		return 0, nil, fmt.Errorf("server: unsupported binary protocol version %d (have %d)", v, binVersion)
	}
	return b[len(binMagic)+1], b[binHeaderLen:], nil
}

// AppendBinRequest encodes a binary estimate request into dst and returns
// the extended slice — the client-side encoder (harness load generator,
// cmd/ncbin). With a reused dst it allocates nothing beyond slice growth.
func AppendBinRequest(dst []byte, model string, seed *int64, queries []query.Query) []byte {
	var flags byte
	if seed != nil {
		flags |= binFlagSeeded
	}
	dst = appendBinHeader(dst, flags)
	dst = binary.AppendUvarint(dst, uint64(len(model)))
	dst = append(dst, model...)
	if seed != nil {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(*seed))
	}
	dst = binary.AppendUvarint(dst, uint64(len(queries)))
	for _, q := range queries {
		dst = q.AppendKey(dst)
	}
	return dst
}

// DecodeBinRequest parses a binary estimate request frame. The whole buffer
// must be consumed: trailing garbage means a corrupt or truncated frame.
func DecodeBinRequest(b []byte) (BinRequest, error) {
	var req BinRequest
	flags, b, err := readBinHeader(b)
	if err != nil {
		return BinRequest{}, err
	}
	if flags&^binFlagSeeded != 0 {
		return BinRequest{}, fmt.Errorf("server: unknown binary request flags %#x", flags)
	}
	if req.Model, b, err = readBinString(b, maxBinModelBytes); err != nil {
		return BinRequest{}, fmt.Errorf("server: binary request model: %w", err)
	}
	if flags&binFlagSeeded != 0 {
		if len(b) < 8 {
			return BinRequest{}, query.ErrKeyTruncated
		}
		seed := int64(binary.LittleEndian.Uint64(b))
		req.Seed = &seed
		b = b[8:]
	}
	n, consumed := binary.Uvarint(b)
	if consumed <= 0 {
		return BinRequest{}, query.ErrKeyTruncated
	}
	b = b[consumed:]
	if n < 1 {
		return BinRequest{}, errors.New("server: binary request carries no queries")
	}
	if n > uint64(len(b))+1 { // each query encodes to ≥ 2 bytes; cheap pre-check
		return BinRequest{}, query.ErrKeyTruncated
	}
	req.Queries = make([]query.Query, n)
	for i := range req.Queries {
		if req.Queries[i], b, err = query.DecodeKey(b); err != nil {
			return BinRequest{}, fmt.Errorf("server: binary request query %d: %w", i, err)
		}
	}
	if len(b) != 0 {
		return BinRequest{}, fmt.Errorf("server: %d trailing bytes after binary request", len(b))
	}
	return req, nil
}

// AppendBinResponse encodes a binary estimate response into dst and returns
// the extended slice — the server-side encoder, fed from a pooled buffer so
// the hot path allocates nothing.
func AppendBinResponse(dst []byte, model string, ests []float64, errs []string, degraded bool) []byte {
	var flags byte
	if errs != nil {
		flags |= binFlagErrors
	}
	if degraded {
		flags |= binFlagDegraded
	}
	dst = appendBinHeader(dst, flags)
	dst = binary.AppendUvarint(dst, uint64(len(model)))
	dst = append(dst, model...)
	dst = binary.AppendUvarint(dst, uint64(len(ests)))
	for _, est := range ests {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(est))
	}
	if errs != nil {
		for _, e := range errs {
			dst = binary.AppendUvarint(dst, uint64(len(e)))
			dst = append(dst, e...)
		}
	}
	return dst
}

// DecodeBinResponse parses a binary estimate response frame — the
// client-side decoder.
func DecodeBinResponse(b []byte) (BinResponse, error) {
	var resp BinResponse
	flags, b, err := readBinHeader(b)
	if err != nil {
		return BinResponse{}, err
	}
	if flags&^(binFlagErrors|binFlagDegraded) != 0 {
		return BinResponse{}, fmt.Errorf("server: unknown binary response flags %#x", flags)
	}
	resp.Degraded = flags&binFlagDegraded != 0
	if resp.Model, b, err = readBinString(b, maxBinModelBytes); err != nil {
		return BinResponse{}, fmt.Errorf("server: binary response model: %w", err)
	}
	n, consumed := binary.Uvarint(b)
	if consumed <= 0 {
		return BinResponse{}, query.ErrKeyTruncated
	}
	b = b[consumed:]
	if n > uint64(len(b))/8 {
		return BinResponse{}, query.ErrKeyTruncated
	}
	resp.Ests = make([]float64, n)
	for i := range resp.Ests {
		resp.Ests[i] = math.Float64frombits(binary.LittleEndian.Uint64(b))
		b = b[8:]
	}
	if flags&binFlagErrors != 0 {
		resp.Errs = make([]string, n)
		for i := range resp.Errs {
			if resp.Errs[i], b, err = readBinString(b, 1<<16); err != nil {
				return BinResponse{}, fmt.Errorf("server: binary response error %d: %w", i, err)
			}
		}
	}
	if len(b) != 0 {
		return BinResponse{}, fmt.Errorf("server: %d trailing bytes after binary response", len(b))
	}
	return resp, nil
}

// readBinString reads a uvarint-length-prefixed string bounded by limit.
func readBinString(b []byte, limit uint64) (string, []byte, error) {
	n, consumed := binary.Uvarint(b)
	if consumed <= 0 {
		return "", nil, query.ErrKeyTruncated
	}
	if n > limit {
		return "", nil, fmt.Errorf("string of %d bytes exceeds limit %d", n, limit)
	}
	b = b[consumed:]
	if uint64(len(b)) < n {
		return "", nil, query.ErrKeyTruncated
	}
	return string(b[:n]), b[n:], nil
}

// wireBufPool recycles request/response scratch buffers for the binary hot
// path: one Get covers reading the body and encoding the reply, so a
// steady-state binary estimate performs no per-request buffer allocation.
var wireBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 4096)
		return &b
	},
}
