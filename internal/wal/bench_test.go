package wal

import "testing"

// BenchmarkWALAppend prices the log's one contract on the ack path: one
// record, one barrier — exactly what POST /v1/ingest pays per request
// before it can acknowledge, on top of the engine's AddBatch. Payload is a
// typical chunked ingest batch (~1 KiB of counted tupleio records is ~100
// tuples; we use raw bytes here — the WAL never looks inside).
func BenchmarkWALAppend(b *testing.B) {
	payload := make([]byte, 1024)
	for i := range payload {
		payload[i] = byte(i)
	}
	w, err := Open(b.TempDir(), Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := appendSync(w, RecordIngest, payload); err != nil {
			b.Fatal(err)
		}
	}
}
