package core

import (
	"bytes"
	"encoding/binary"
	"testing"

	"github.com/streamagg/correlated/internal/hash"
	"github.com/streamagg/correlated/internal/sketch"
)

// FuzzUnmarshalBinary hardens the core wire format against hostile
// bytes: corrd's /v1/push endpoint feeds network-supplied images into
// this decode path (via ParseMergeImage, which UnmarshalBinary shares),
// so truncated, corrupt, or config-mismatched input must come back as a
// typed error — never a panic, never a partial mutation that breaks the
// receiver.
func FuzzUnmarshalBinary(f *testing.F) {
	cfg := Config{
		Eps: 0.2, Delta: 0.1, YMax: 1<<12 - 1,
		MaxStreamLen: 1 << 16, MaxX: 1 << 10, Alpha: 16, Seed: 3,
	}
	newSum := func(tb testing.TB) *Summary {
		s, err := NewSummary(F2Aggregate(), cfg)
		if err != nil {
			tb.Fatal(err)
		}
		return s
	}

	// Seed corpus: empty image, populated image (past the singleton
	// regime thanks to the tiny alpha), truncations, corrupted bytes,
	// and a config-mismatched image.
	empty := newSum(f)
	img, err := empty.MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(img)
	full := newSum(f)
	rng := hash.New(9)
	for i := 0; i < 20_000; i++ {
		if err := full.AddWeighted(rng.Uint64n(1<<10), rng.Uint64n(1<<12), 1); err != nil {
			f.Fatal(err)
		}
	}
	if img, err = full.MarshalBinary(); err != nil {
		f.Fatal(err)
	}
	f.Add(img)
	f.Add(img[:len(img)/2])
	f.Add(img[:1])
	corrupt := append([]byte(nil), img...)
	corrupt[len(corrupt)/3] ^= 0xff
	f.Add(corrupt)
	otherCfg := cfg
	otherCfg.Seed++
	other, err := NewSummary(F2Aggregate(), otherCfg)
	if err != nil {
		f.Fatal(err)
	}
	if img, err = other.MarshalBinary(); err != nil {
		f.Fatal(err)
	}
	f.Add(img)
	f.Add([]byte{})
	// A sketch's payload records its form. Seed images whose first sketch
	// (the shared one) sits on either side of the promotion point — as
	// many pairs as the items form holds, then one more and dense — each
	// whole, cut inside that payload, and corrupted inside it; and the
	// dense one re-framed as the version-2 payload it would have been
	// before sketches kept their items (no form byte), which must still
	// load.
	fm := newSum(f).maker.(*sketch.F2Maker)
	atLimit := fm.Width() * fm.Depth() / 4
	for _, items := range []int{atLimit, atLimit + 1} {
		edge := newSum(f)
		for x := 0; x < items; x++ {
			if err := edge.AddWeighted(uint64(x), 1, 1); err != nil {
				f.Fatal(err)
			}
		}
		if dense := edge.shared.Size() == fm.Width()*fm.Depth(); dense != (items > atLimit) {
			f.Fatalf("%d items left the shared sketch dense=%v", items, dense)
		}
		if img, err = edge.MarshalBinary(); err != nil {
			f.Fatal(err)
		}
		payload, err := edge.shared.(*sketch.CountSketch).MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		at := bytes.Index(img, payload)
		if at < 0 {
			f.Fatal("shared sketch payload not found in the image")
		}
		f.Add(img)
		f.Add(img[:at+len(payload)*3/4])
		corrupt = append([]byte(nil), img...)
		corrupt[at+len(payload)*3/4] ^= 0x81
		f.Add(corrupt)
		if items > atLimit {
			// Version and kind, the two geometry varints, then the form.
			form := 2
			for k := 0; k < 2; k++ {
				_, n := binary.Uvarint(payload[form:])
				form += n
			}
			v2 := append([]byte{2}, payload[1:form]...)
			v2 = append(v2, payload[form+1:]...)
			prefix := len(binary.AppendUvarint(nil, uint64(len(payload))))
			old := append([]byte(nil), img[:at-prefix]...)
			old = append(binary.AppendUvarint(old, uint64(len(v2))), v2...)
			old = append(old, img[at+len(payload):]...)
			if err := newSum(f).UnmarshalBinary(old); err != nil {
				f.Fatalf("image with a version-2 sketch payload: %v", err)
			}
			f.Add(old)
		}
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		s := newSum(t)
		if err := s.UnmarshalBinary(data); err != nil {
			return // rejected: fine, as long as nothing panicked
		}
		// Accepted images must leave a fully usable summary: it can be
		// queried, ingested into, and re-marshaled.
		if _, err := s.Query(1 << 11); err != nil && err != ErrNoLevel {
			t.Fatalf("query after accepted image: %v", err)
		}
		if err := s.AddWeighted(1, 1, 1); err != nil {
			t.Fatalf("add after accepted image: %v", err)
		}
		if _, err := s.MarshalBinary(); err != nil {
			t.Fatalf("re-marshal after accepted image: %v", err)
		}
	})
}

// FuzzParseMergeImage drives the same bytes through the merge-in path
// (what MergeMarshaled uses) against a non-empty receiver: an accepted
// image must merge without panicking and keep the receiver usable.
func FuzzParseMergeImage(f *testing.F) {
	cfg := Config{
		Eps: 0.2, Delta: 0.1, YMax: 1<<12 - 1,
		MaxStreamLen: 1 << 16, MaxX: 1 << 10, Alpha: 16, Seed: 3,
	}
	site, err := NewSummary(F2Aggregate(), cfg)
	if err != nil {
		f.Fatal(err)
	}
	rng := hash.New(4)
	for i := 0; i < 5_000; i++ {
		if err := site.AddWeighted(rng.Uint64n(1<<10), rng.Uint64n(1<<12), 1); err != nil {
			f.Fatal(err)
		}
	}
	img, err := site.MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(img)
	f.Add(img[:len(img)-7])
	f.Add([]byte{3}) // version byte alone

	f.Fuzz(func(t *testing.T, data []byte) {
		recv, err := NewSummary(F2Aggregate(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 50; i++ {
			if err := recv.AddWeighted(uint64(i), uint64(i%4096), 1); err != nil {
				t.Fatal(err)
			}
		}
		mi, err := recv.ParseMergeImage(data)
		if err != nil {
			return
		}
		if err := recv.ApplyMergeImage(mi); err != nil {
			return
		}
		if err := recv.AddWeighted(1, 1, 1); err != nil {
			t.Fatalf("add after merge: %v", err)
		}
		if _, err := recv.MarshalBinary(); err != nil {
			t.Fatalf("marshal after merge: %v", err)
		}
	})
}
