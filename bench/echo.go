package main

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
)

// The echo is the benchmark's reference server. It speaks the framing of
// contender-serve's two fronts — binary frames and HTTP/1.1 — and
// answers every request with the request's own payload, doing no other
// work. An untraced run alternates its load between the server under
// test and the echo, and reports the server's rate and latency as
// multiples of the echo's: the transport, the client and the machine's
// momentary speed weigh on both alike and cancel, while everything the
// server does beyond moving the bytes remains. It runs as a process of
// its own, as the server does, from this binary (bench echo); none of
// its code is the program's.

// runEcho serves the echo on two ephemeral loopback ports and reports
// them on standard error in contender-serve's words, so the benchmark
// starts both the same way. It serves until the process is interrupted.
func runEcho() error {
	bin, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	web, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "serve: binary protocol on %s\n", bin.Addr())
	fmt.Fprintf(os.Stderr, "serve: http://%s/\n", web.Addr())
	errc := make(chan error, 2)
	go func() { errc <- serveEchoBinary(bin) }()
	go func() { errc <- http.Serve(web, http.HandlerFunc(echoHTTP)) }()
	return <-errc
}

// echoHTTP answers a request with its body.
func echoHTTP(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(body) // a failed write shows as a failed read at the client
}

// serveEchoBinary accepts binary-protocol connections until the listener
// closes.
func serveEchoBinary(ln net.Listener) error {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return err
		}
		go func() {
			defer conn.Close()
			_ = echoFrames(conn) // the connection ends when the client closes it
		}()
	}
}

// echoFrames answers each frame with the same frame, its op byte turned
// into status CodeOK (0), and flushes when no further request is
// buffered, as the server flushes per burst.
func echoFrames(conn net.Conn) error {
	br := bufio.NewReaderSize(conn, 64<<10)
	bw := bufio.NewWriterSize(conn, 64<<10)
	var frame []byte
	for {
		var hdr [4]byte
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return err
		}
		n := int(binary.LittleEndian.Uint32(hdr[:]))
		if n < 6 || n > 1<<20 {
			return errors.New("bad frame length")
		}
		if cap(frame) < n {
			frame = make([]byte, n)
		}
		frame = frame[:n]
		if _, err := io.ReadFull(br, frame); err != nil {
			return err
		}
		frame[1] = 0
		if _, err := bw.Write(hdr[:]); err != nil {
			return err
		}
		if _, err := bw.Write(frame); err != nil {
			return err
		}
		if br.Buffered() == 0 {
			if err := bw.Flush(); err != nil {
				return err
			}
		}
	}
}
