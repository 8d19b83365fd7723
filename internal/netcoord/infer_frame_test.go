package netcoord

import (
	"bytes"
	"encoding/hex"
	"io"
	"net"
	"reflect"
	"testing"
	"time"
)

// The inference exchange as whole frames (u32 length | type | CRC-32 of
// payload | payload), beside TestTrainFrames' TRAIN/TRAINRES: HELLO is
// "FTNC" | u16 version; the inference WELCOME u16 version | u32 dim;
// PREDICT u32 rows | u32 dim | rows·dim float32; PREDICTRES status 0 |
// u32 rows | rows × u32 class.
var inferFrames = struct{ hello, welcome, predict, predictRes []byte }{
	hello:      unhex("0000000b" + "01" + "db400dd8" + "46544e43" + "0001"),
	welcome:    unhex("0000000b" + "02" + "15abd9a9" + "0001" + "00000003"),
	predict:    unhex("00000025" + "06" + "ee2d563e" + "00000002" + "00000003" + "3f800000c02000003f000000" + "0000000040400000477fe000"),
	predictRes: unhex("00000012" + "07" + "ac576d09" + "00" + "00000002" + "00000002" + "00000102"),
}

func unhex(s string) []byte {
	b, err := hex.DecodeString(s)
	if err != nil {
		panic(err)
	}
	return b
}

// TestInferenceFrames pins those four frames in both directions with
// the same literal bytes: a raw peer plays them against the server,
// which must answer with exactly the committed WELCOME and PREDICTRES,
// and a raw server checks that the client sends exactly the committed
// HELLO and PREDICT and accepts the committed replies.
func TestInferenceFrames(t *testing.T) {
	rows := [][]float64{{1, -2.5, 0.5}, {0, 3, 65504}}
	classes := []int{2, 0x0102}
	listen := func() net.Listener {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ln.Close() })
		return ln
	}
	// expect reads len(want) bytes off c and compares them.
	expect := func(c net.Conn, what string, want []byte) {
		t.Helper()
		got := make([]byte, len(want))
		c.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := io.ReadFull(c, got); err != nil || !bytes.Equal(got, want) {
			t.Errorf("%s frame moved (err %v):\n got %x\nwant %x", what, err, got, want)
		}
	}

	ln := listen()
	go ServeInference(ln, 3, func(got [][]float64) ([]int, error) {
		if !reflect.DeepEqual(got, rows) {
			t.Errorf("server decoded rows %v, want %v", got, rows)
		}
		return classes, nil
	})
	peer, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	peer.Write(inferFrames.hello)
	expect(peer, "WELCOME", inferFrames.welcome)
	peer.Write(inferFrames.predict)
	expect(peer, "PREDICTRES", inferFrames.predictRes)

	ln = listen()
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		expect(c, "HELLO", inferFrames.hello)
		c.Write(inferFrames.welcome)
		expect(c, "PREDICT", inferFrames.predict)
		c.Write(inferFrames.predictRes)
	}()
	cl, err := dialInference(ln.Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatalf("client refused the golden WELCOME: %v", err)
	}
	defer cl.Close()
	if cl.Dim() != 3 {
		t.Errorf("client read dim %d from the golden WELCOME, want 3", cl.Dim())
	}
	if got, err := cl.PredictBatch(rows); err != nil || !reflect.DeepEqual(got, classes) {
		t.Errorf("client read classes %v (err %v) from the golden PREDICTRES, want %v", got, err, classes)
	}
}
