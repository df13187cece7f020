package shard

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"
)

// TestFrameRoundTrip: readFrame decodes what encodeFrame wrote, and
// rejects a truncated body or an over-limit length prefix.
func TestFrameRoundTrip(t *testing.T) {
	want := &frame{Beat: &beatMsg{T1: 7, OffsetNanos: -3, HasClock: true, Lease: 12}}
	b, err := encodeFrame(want)
	if err != nil {
		t.Fatal(err)
	}
	got, err := readFrame(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip: got %+v, want %+v", got, want)
	}
	if _, err := readFrame(bytes.NewReader(b[:len(b)-1])); err == nil {
		t.Error("truncated frame decoded")
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], maxFrame+1)
	if _, err := readFrame(bytes.NewReader(hdr[:])); err == nil {
		t.Error("over-limit length prefix accepted")
	}
}

// FuzzReadFrame feeds arbitrary bytes to the frame reader a coordinator
// or worker runs on its peer's connection: it must return a frame or an
// error, never panic, and never allocate more than the input carries.
func FuzzReadFrame(f *testing.F) {
	for _, fr := range []*frame{
		{Hello: &helloMsg{PID: 1, Procs: 2}},
		{Want: &wantMsg{}},
		{Beat: &beatMsg{T1: 3, LastRTTNanos: 4}},
		{BeatAck: &beatAckMsg{T1: 3, T2: 5, T3: 6}},
		{JobEnd: &jobEndMsg{ID: "j"}},
	} {
		b, err := encodeFrame(fr)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{0, 0, 0, 8, 1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := readFrame(bytes.NewReader(data))
		if err == nil && fr == nil {
			t.Fatal("nil frame without an error")
		}
	})
}
