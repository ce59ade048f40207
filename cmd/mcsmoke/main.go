// mcsmoke drives a memcached-compatible listener through the full
// command set — set/get/gets/cas/add/replace/append/prepend/incr/decr/
// delete/touch/version — then sends 100 pipelined commands in a single
// write and checks the reply stream byte for byte, and exits non-zero on
// the first mismatch. CI points it at a cpserver -memcached listener to
// prove the text protocol round-trips like stock memcached, one command
// at a time and a batch at a time.
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"strings"
	"time"

	"cphash/internal/mcclient"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:11211", "memcached listener address")
	timeout := flag.Duration("timeout", 5*time.Second, "dial timeout")
	flag.Parse()

	if err := run(*addr, *timeout); err != nil {
		fmt.Fprintf(os.Stderr, "mcsmoke: FAIL: %v\n", err)
		os.Exit(1)
	}
	fmt.Println("mcsmoke: OK")
}

func run(addr string, timeout time.Duration) error {
	c, err := mcclient.Dial(addr, timeout)
	if err != nil {
		return fmt.Errorf("dial %s: %w", addr, err)
	}
	defer c.Close()

	if v, err := c.Version(); err != nil || v == "" {
		return fmt.Errorf("version: %q, %v", v, err)
	}

	// set / get round-trip, flags preserved.
	if err := c.Set("smoke:k1", []byte("hello"), 42, 0); err != nil {
		return fmt.Errorf("set: %w", err)
	}
	it, err := c.Get("smoke:k1")
	if err != nil {
		return fmt.Errorf("get after set: %w", err)
	}
	if !bytes.Equal(it.Value, []byte("hello")) || it.Flags != 42 {
		return fmt.Errorf("get: got %q flags %d, want %q flags 42", it.Value, it.Flags, "hello")
	}

	// gets → cas succeeds once, then conflicts with the stale token.
	it, err = c.Gets("smoke:k1")
	if err != nil {
		return fmt.Errorf("gets: %w", err)
	}
	if it.CAS == 0 {
		return errors.New("gets: zero cas token")
	}
	if err := c.Cas("smoke:k1", []byte("hello2"), 42, 0, it.CAS); err != nil {
		return fmt.Errorf("cas with fresh token: %w", err)
	}
	if err := c.Cas("smoke:k1", []byte("hello3"), 42, 0, it.CAS); !errors.Is(err, mcclient.ErrExists) {
		return fmt.Errorf("cas with stale token: got %v, want ErrExists", err)
	}

	// add respects presence; replace respects absence.
	if err := c.Add("smoke:k1", []byte("x"), 0, 0); !errors.Is(err, mcclient.ErrNotStored) {
		return fmt.Errorf("add on present key: got %v, want ErrNotStored", err)
	}
	if err := c.Replace("smoke:absent", []byte("x"), 0, 0); !errors.Is(err, mcclient.ErrNotStored) {
		return fmt.Errorf("replace on absent key: got %v, want ErrNotStored", err)
	}

	// append/prepend concatenate around the stored value.
	if err := c.Append("smoke:k1", []byte("!")); err != nil {
		return fmt.Errorf("append: %w", err)
	}
	if err := c.Prepend("smoke:k1", []byte(">")); err != nil {
		return fmt.Errorf("prepend: %w", err)
	}
	it, err = c.Get("smoke:k1")
	if err != nil || !bytes.Equal(it.Value, []byte(">hello2!")) {
		return fmt.Errorf("get after append/prepend: %q, %v (want %q)", it.Value, err, ">hello2!")
	}

	// incr / decr on a numeric value; decr floors at zero.
	if err := c.Set("smoke:n", []byte("10"), 0, 0); err != nil {
		return fmt.Errorf("set counter: %w", err)
	}
	if n, err := c.Incr("smoke:n", 5); err != nil || n != 15 {
		return fmt.Errorf("incr: got %d, %v, want 15", n, err)
	}
	if n, err := c.Decr("smoke:n", 100); err != nil || n != 0 {
		return fmt.Errorf("decr floor: got %d, %v, want 0", n, err)
	}
	if _, err := c.Incr("smoke:absent", 1); !errors.Is(err, mcclient.ErrCacheMiss) {
		return fmt.Errorf("incr on absent key: got %v, want ErrCacheMiss", err)
	}

	// multi-key get: one round trip, misses silently absent.
	m, err := c.GetMulti("smoke:k1", "smoke:n", "smoke:absent")
	if err != nil {
		return fmt.Errorf("get multi: %w", err)
	}
	if len(m) != 2 || m["smoke:k1"] == nil || m["smoke:n"] == nil {
		return fmt.Errorf("get multi: got %d items, want smoke:k1 and smoke:n", len(m))
	}

	// touch present and absent keys.
	if err := c.Touch("smoke:k1", 3600); err != nil {
		return fmt.Errorf("touch: %w", err)
	}
	if err := c.Touch("smoke:absent", 3600); !errors.Is(err, mcclient.ErrCacheMiss) {
		return fmt.Errorf("touch absent: got %v, want ErrCacheMiss", err)
	}

	// delete once, then NOT_FOUND.
	if err := c.Delete("smoke:k1"); err != nil {
		return fmt.Errorf("delete: %w", err)
	}
	if err := c.Delete("smoke:k1"); !errors.Is(err, mcclient.ErrCacheMiss) {
		return fmt.Errorf("second delete: got %v, want ErrCacheMiss", err)
	}
	if _, err := c.Get("smoke:k1"); !errors.Is(err, mcclient.ErrCacheMiss) {
		return fmt.Errorf("get after delete: got %v, want ErrCacheMiss", err)
	}

	// stats answers and counts this connection.
	st, err := c.Stats()
	if err != nil {
		return fmt.Errorf("stats: %w", err)
	}
	if st["curr_connections"] == "" {
		return errors.New("stats: missing curr_connections")
	}
	return burst(addr, timeout)
}

// burst pipelines 100 commands in one write — what the server gathers
// into a batch — and requires the exact replies, in order, "noreply"
// commands leaving no trace.
func burst(addr string, timeout time.Duration) error {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return fmt.Errorf("burst dial %s: %w", addr, err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(timeout))

	var req, want strings.Builder
	add := func(command, reply string) {
		req.WriteString(command)
		want.WriteString(reply)
	}
	add("set smoke:b:n 0 0 1\r\n0\r\n", "STORED\r\n")
	for i := 0; i < 11; i++ { // 1 + 11×9 = 100 commands
		k := fmt.Sprintf("smoke:b:%d", i)
		add(fmt.Sprintf("set %s %d 0 %d\r\n%s\r\n", k, i, len(k), k), "STORED\r\n")
		add(fmt.Sprintf("set %s:q 0 0 1 noreply\r\nq\r\n", k), "")
		add(fmt.Sprintf("get smoke:b:absent %s %s:q\r\n", k, k),
			fmt.Sprintf("VALUE %s %d %d\r\n%s\r\nVALUE %s:q 0 1\r\nq\r\nEND\r\n", k, i, len(k), k, k))
		add("incr smoke:b:n 3\r\n", fmt.Sprintf("%d\r\n", 3*(i+1)))
		add(fmt.Sprintf("delete %s:q\r\n", k), "DELETED\r\n")
		add(fmt.Sprintf("delete %s:q\r\n", k), "NOT_FOUND\r\n")
		add(fmt.Sprintf("add %s 0 0 1\r\nx\r\n", k), "NOT_STORED\r\n")
		add("smoke-unknown-verb\r\n", "ERROR\r\n")
		add(fmt.Sprintf("touch %s 3600\r\n", k), "TOUCHED\r\n")
	}
	if _, err := io.WriteString(conn, req.String()); err != nil {
		return fmt.Errorf("burst write: %w", err)
	}
	got := make([]byte, want.Len())
	if n, err := io.ReadFull(conn, got); err != nil {
		return fmt.Errorf("burst: read %d of %d reply bytes: %w", n, len(got), err)
	}
	if string(got) != want.String() {
		return fmt.Errorf("burst: reply stream diverged:\n got %q\nwant %q", got, want.String())
	}
	return nil
}
