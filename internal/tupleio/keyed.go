package tupleio

// Keyed (multi-tenant) wire forms. A tenant key is an opaque short byte
// string naming one of the daemon's independent summaries; the empty
// key is the default tenant, which is also what the counted stream
// format (StreamFormatCounted) implicitly addresses. On the wire a key
// travels as a uvarint length followed by the bytes, prefixed to the
// counted batch it scopes:
//
//	keyed batch   uvarint(len(tenant)) tenant  counted-batch
//
// The same prefix scopes every member of a WAL ingest record (a sorted
// batch, sorted.go), every snapshot entry and
// stream frames in the keyed frame format (StreamFormatKeyed), so every
// tenant-tagged decode path in the system shares this one grammar — and
// the same hostile-input discipline as the rest of the codec: the length claim
// is checked against MaxTenantLen and against the bytes actually
// present before anything is sliced, and the decoded key aliases the
// input (no allocation; callers that keep it must copy).

import (
	"encoding/binary"
	"fmt"

	"github.com/streamagg/correlated/internal/core"
)

// MaxTenantLen bounds a tenant key's encoded length. It keeps hostile
// length claims cheap to reject, registry keys small, and the per-frame
// overhead of the keyed stream format bounded.
const MaxTenantLen = 128

// ValidateTenant checks a tenant key against the wire rules: at most
// MaxTenantLen bytes, no control bytes (URLs, log lines, and file names
// all carry tenant keys verbatim). The empty key — the default tenant —
// is valid.
func ValidateTenant(name []byte) error {
	if len(name) > MaxTenantLen {
		return fmt.Errorf("%w: tenant key is %d bytes, cap is %d", ErrBadStream, len(name), MaxTenantLen)
	}
	for i, b := range name {
		if b < 0x20 || b == 0x7f {
			return fmt.Errorf("%w: tenant key has control byte 0x%02x at %d", ErrBadStream, b, i)
		}
	}
	return nil
}

// AppendTenant appends the keyed prefix for tenant.
func AppendTenant(buf []byte, tenant string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(tenant)))
	return append(buf, tenant...)
}

// DecodeTenantPrefix parses a keyed prefix from the front of data and
// returns the key bytes (aliasing data — copy to keep) and the rest.
// The length claim is bounded by MaxTenantLen and by the bytes present
// before any slice is taken, and the key bytes themselves must pass
// ValidateTenant — the decode side enforces exactly what the encode
// side promises.
func DecodeTenantPrefix(data []byte) (tenant, rest []byte, err error) {
	n, sz := binary.Uvarint(data)
	if sz <= 0 {
		return nil, data, fmt.Errorf("%w: bad tenant length header", ErrBadStream)
	}
	data = data[sz:]
	if n > MaxTenantLen {
		return nil, data, fmt.Errorf("%w: tenant key claims %d bytes, cap is %d", ErrBadStream, n, MaxTenantLen)
	}
	if n > uint64(len(data)) {
		return nil, data, fmt.Errorf("%w: tenant key claims %d bytes, %d remain", ErrBadStream, n, len(data))
	}
	tenant = data[:n]
	if err := ValidateTenant(tenant); err != nil {
		return nil, data, err
	}
	return tenant, data[n:], nil
}

// AppendKeyedBatch appends a tenant-scoped counted batch: the keyed
// prefix, then exactly what AppendCountedBatch writes. This is the
// payload of one keyed stream frame.
func AppendKeyedBatch(buf []byte, tenant string, batch []core.Tuple) []byte {
	buf = AppendTenant(buf, tenant)
	return AppendCountedBatch(buf, batch)
}

// DecodeKeyed parses a complete keyed batch (one keyed stream frame's
// payload): the tenant key (aliasing data) and the counted batch, with
// trailing bytes an error exactly as in DecodeCounted.
func DecodeKeyed(dst []core.Tuple, data []byte) (tenant []byte, batch []core.Tuple, err error) {
	tenant, data, err = DecodeTenantPrefix(data)
	if err != nil {
		return nil, dst[:0], err
	}
	batch, rest, err := DecodeCountedPrefix(dst, data)
	if err != nil {
		return nil, batch, err
	}
	if len(rest) != 0 {
		return nil, batch[:0], fmt.Errorf("%w: %d trailing bytes after the keyed batch", ErrBadStream, len(rest))
	}
	return tenant, batch, nil
}
