package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http/httputil"
	"strconv"
	"time"
)

// The load generator shares one CPU with the servers it measures, so it
// speaks HTTP/1.1 by hand over a persistent connection: one write per
// request, one buffered parse per response, no per-request allocation. A
// net/http client would spend about as much CPU per request as chronosd does
// on a cache hit, and that CPU would come out of the server's share.

// conn is one persistent HTTP/1.1 connection.
type conn struct {
	c  net.Conn
	br *bufio.Reader
}

func dial(addr string) (*conn, error) {
	c, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		return nil, err
	}
	return &conn{c: c, br: bufio.NewReaderSize(c, 16<<10)}, nil
}

func (c *conn) close() { c.c.Close() }

// ioLimit bounds one request/response exchange; a stuck server fails the
// request instead of hanging the run. Replay streams get their own limit.
const ioLimit = 30 * time.Second

// buildRequest appends one complete HTTP/1.1 request to dst. The Host header
// is a constant (chronosd ignores it), so the bytes a workload sends depend
// on its seed alone and not on the ports a run happened to get.
func buildRequest(dst []byte, method, path string, body []byte) []byte {
	dst = append(dst, method...)
	dst = append(dst, ' ')
	dst = append(dst, path...)
	dst = append(dst, " HTTP/1.1\r\nHost: chronosd\r\n"...)
	if body != nil {
		dst = append(dst, "Content-Type: application/json\r\nContent-Length: "...)
		dst = strconv.AppendInt(dst, int64(len(body)), 10)
		dst = append(dst, "\r\n"...)
	}
	dst = append(dst, "\r\n"...)
	return append(dst, body...)
}

// header is what the benchmark needs from a response head.
type header struct {
	status  int
	length  int // Content-Length, -1 when absent
	chunked bool
}

func (c *conn) readHeader() (header, error) {
	h := header{length: -1}
	line, err := c.br.ReadSlice('\n')
	if err != nil {
		return h, err
	}
	// "HTTP/1.1 200 OK\r\n"
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.")) {
		return h, fmt.Errorf("malformed status line %q", line)
	}
	if h.status, err = strconv.Atoi(string(line[9:12])); err != nil {
		return h, fmt.Errorf("malformed status line %q", line)
	}
	for {
		line, err = c.br.ReadSlice('\n')
		if err != nil {
			return h, err
		}
		if len(line) <= 2 {
			return h, nil
		}
		colon := bytes.IndexByte(line, ':')
		if colon < 0 {
			return h, fmt.Errorf("malformed header line %q", line)
		}
		name, value := line[:colon], bytes.TrimSpace(line[colon+1:])
		switch {
		case bytes.EqualFold(name, []byte("Content-Length")):
			if h.length, err = strconv.Atoi(string(value)); err != nil {
				return h, fmt.Errorf("malformed Content-Length %q", value)
			}
		case bytes.EqualFold(name, []byte("Transfer-Encoding")):
			h.chunked = bytes.EqualFold(value, []byte("chunked"))
		}
	}
}

// endChunked consumes the (empty) trailer section that follows the last
// chunk, which httputil's reader leaves on the connection.
func (c *conn) endChunked() error {
	for {
		line, err := c.br.ReadSlice('\n')
		if err != nil {
			return err
		}
		if len(line) <= 2 {
			return nil
		}
	}
}

// do sends req and reads one response, appending its body to dst.
func (c *conn) do(req, dst []byte) (status int, out []byte, err error) {
	_ = c.c.SetDeadline(time.Now().Add(ioLimit))
	if _, err := c.c.Write(req); err != nil {
		return 0, dst, err
	}
	h, err := c.readHeader()
	if err != nil {
		return 0, dst, err
	}
	switch {
	case h.chunked:
		buf := bytes.NewBuffer(dst)
		if _, err := buf.ReadFrom(httputil.NewChunkedReader(c.br)); err != nil {
			return h.status, dst, err
		}
		return h.status, buf.Bytes(), c.endChunked()
	case h.length >= 0:
		n := len(dst)
		if cap(dst)-n < h.length {
			dst = append(dst, make([]byte, h.length)...)[:n]
		}
		dst = dst[:n+h.length]
		if _, err := io.ReadFull(c.br, dst[n:]); err != nil {
			return h.status, dst[:n], err
		}
		return h.status, dst, nil
	default:
		return h.status, dst, errors.New("response has neither Content-Length nor chunked encoding")
	}
}

// stream sends req and hands every line of a chunked NDJSON response to
// onLine (without the newline; the slice is reused). A non-chunked answer —
// an error envelope — is returned as one line.
func (c *conn) stream(req []byte, limit time.Duration, onLine func(line []byte) error) (status int, err error) {
	_ = c.c.SetDeadline(time.Now().Add(limit))
	if _, err := c.c.Write(req); err != nil {
		return 0, err
	}
	h, err := c.readHeader()
	if err != nil {
		return 0, err
	}
	if !h.chunked {
		if h.length < 0 {
			return h.status, errors.New("response has neither Content-Length nor chunked encoding")
		}
		body := make([]byte, h.length)
		if _, err := io.ReadFull(c.br, body); err != nil {
			return h.status, err
		}
		return h.status, onLine(bytes.TrimSpace(body))
	}
	lines := bufio.NewReaderSize(httputil.NewChunkedReader(c.br), 64<<10)
	for {
		line, err := lines.ReadSlice('\n')
		if len(line) > 0 {
			if cbErr := onLine(bytes.TrimRight(line, "\r\n")); cbErr != nil {
				return h.status, cbErr
			}
		}
		if err == io.EOF {
			return h.status, c.endChunked()
		}
		if err != nil {
			return h.status, err
		}
	}
}
