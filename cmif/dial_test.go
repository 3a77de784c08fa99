package cmif_test

import (
	"context"
	"errors"
	"io"
	"net"
	"testing"

	"repro/cmif"
)

// TestDialRefusedHelloIsUnsupported pins the typed failure a client sees
// against a server that does not speak v4: the hello is answered with a
// v1-framed error, and Dial fails with ErrUnsupported.
func TestDialRefusedHelloIsUnsupported(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		hello := make([]byte, 4+1+2+4+1) // one v1 frame: opHello [maxVersion]
		if _, err := io.ReadFull(conn, hello); err != nil {
			return
		}
		text := "unknown op 9"
		resp := []byte{0, 0, 0, byte(1 + 2 + 4 + len(text)), 255, 0, 1, 0, 0, 0, byte(len(text))}
		_, _ = conn.Write(append(resp, text...))
	}()
	c, err := cmif.Dial(context.Background(), l.Addr().String())
	if err == nil {
		c.Close()
		t.Fatal("Dial succeeded against a server that refused the hello")
	}
	if !errors.Is(err, cmif.ErrUnsupported) {
		t.Fatalf("Dial error = %v, want ErrUnsupported", err)
	}
}
