// Package vnet is a deterministic in-memory network used by the
// experiments: the XSA-148 use case needs a remote host running a
// listener ("nc -l -vvv -p 1234") that the backdoored dom0 connects back
// to. The network is synchronous — delivery happens inside the calls —
// so experiment runs are reproducible without goroutines or timing.
package vnet

import (
	"errors"
	"fmt"
	"strings"
	"sync"
)

// Errors reported by the network.
var (
	// ErrRefused is returned when dialing an address nobody listens on.
	ErrRefused = errors.New("vnet: connection refused")
	// ErrAddrInUse is returned when an address already has a listener.
	ErrAddrInUse = errors.New("vnet: address already in use")
	// ErrClosed is returned for operations on closed endpoints.
	ErrClosed = errors.New("vnet: endpoint closed")
	// ErrNoData is returned when reading an empty inbox.
	ErrNoData = errors.New("vnet: no data available")
)

// LineHandler consumes one request line and produces the response, the
// synchronous stand-in for a remote shell's read-eval loop.
type LineHandler func(line string) string

// Network is a closed universe of addresses.
type Network struct {
	mu        sync.Mutex
	listeners map[string]*Listener
	log       []string
	// sealed is, on a fork, the network the fork resets to.
	sealed *Network
}

// New creates an empty network.
func New() *Network {
	return &Network{listeners: make(map[string]*Listener)}
}

// Fork clones the network for a snapshot fork: every bound address gets
// a fresh listener with an empty pending queue, and the connection log
// is clip-shared with the sealed original so appends reallocate.
// Established connections are not cloned — at seal time none exist (the
// experiments dial during the attack phase, never at boot).
func (n *Network) Fork() *Network {
	f := &Network{listeners: make(map[string]*Listener, len(n.listeners)), sealed: n}
	f.Reset()
	return f
}

// Reset returns a fork to its sealed network in place: exactly the
// sealed addresses are bound, each with an empty pending queue, and the
// log is clip-shared with the sealed one again. A listener object the
// last cell left bound is kept and cleared. Call it only on a network
// Fork made.
func (n *Network) Reset() {
	s := n.sealed
	s.mu.Lock()
	defer s.mu.Unlock()
	n.mu.Lock()
	defer n.mu.Unlock()
	for addr, l := range n.listeners {
		if _, ok := s.listeners[addr]; ok {
			*l = Listener{net: n, addr: addr}
		} else {
			delete(n.listeners, addr)
		}
	}
	for addr := range s.listeners {
		if _, ok := n.listeners[addr]; !ok {
			n.listeners[addr] = &Listener{net: n, addr: addr}
		}
	}
	n.log = s.log[:len(s.log):len(s.log)]
}

// Listener returns the listener bound to addr, if any. Snapshot forks
// use it to rebind an environment's well-known listener handles.
func (n *Network) Listener(addr string) (*Listener, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	l, ok := n.listeners[addr]
	return l, ok
}

// Log returns the connection log ("Connection from ..." lines), the
// observable the XSA-148 experiment checks on the attacker host.
func (n *Network) Log() []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]string, len(n.log))
	copy(out, n.log)
	return out
}

func (n *Network) logf(format string, args ...any) {
	n.log = append(n.log, fmt.Sprintf(format, args...))
}

// Listen binds a listener to addr ("host:port").
func (n *Network) Listen(addr string) (*Listener, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.listeners[addr]; ok {
		return nil, fmt.Errorf("%w: %s", ErrAddrInUse, addr)
	}
	l := &Listener{net: n, addr: addr}
	n.listeners[addr] = l
	n.logf("Listening on [%s] (family 0)", addr)
	return l, nil
}

// Dial connects from the given source address to addr, delivering the
// server end to the listener's pending queue.
func (n *Network) Dial(from, to string) (*Conn, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	l, ok := n.listeners[to]
	if !ok || l.closed {
		return nil, fmt.Errorf("%w: %s", ErrRefused, to)
	}
	client := &Conn{local: from, remote: to}
	server := &Conn{local: to, remote: from}
	client.peer, server.peer = server, client
	l.pending = append(l.pending, server)
	n.logf("Connection from [%s] to [%s]", from, to)
	return client, nil
}

// Listener accepts incoming connections on one address.
type Listener struct {
	net     *Network
	addr    string
	pending []*Conn
	closed  bool
}

// Addr returns the bound address.
func (l *Listener) Addr() string { return l.addr }

// Accept pops the oldest pending connection. In the synchronous model an
// empty queue is an error, not a block.
func (l *Listener) Accept() (*Conn, error) {
	l.net.mu.Lock()
	defer l.net.mu.Unlock()
	if l.closed {
		return nil, fmt.Errorf("%w: listener on %s", ErrClosed, l.addr)
	}
	if len(l.pending) == 0 {
		return nil, fmt.Errorf("%w: no pending connection on %s", ErrNoData, l.addr)
	}
	c := l.pending[0]
	l.pending = l.pending[1:]
	return c, nil
}

// Pending returns how many connections await Accept.
func (l *Listener) Pending() int {
	l.net.mu.Lock()
	defer l.net.mu.Unlock()
	return len(l.pending)
}

// Close unbinds the listener.
func (l *Listener) Close() {
	l.net.mu.Lock()
	defer l.net.mu.Unlock()
	l.closed = true
	delete(l.net.listeners, l.addr)
}

// Conn is one end of an established connection. Data written to a Conn
// lands in the peer's inbox; if the peer has a line handler installed,
// each written line is answered synchronously instead.
type Conn struct {
	local, remote string
	peer          *Conn
	inbox         []string
	handler       LineHandler
	closed        bool
}

// LocalAddr returns this end's address.
func (c *Conn) LocalAddr() string { return c.local }

// RemoteAddr returns the peer's address.
func (c *Conn) RemoteAddr() string { return c.remote }

// SetHandler installs the serving side's read-eval loop.
func (c *Conn) SetHandler(h LineHandler) { c.handler = h }

// WriteLine sends one line to the peer. If the peer serves a handler the
// response arrives in this end's inbox immediately.
func (c *Conn) WriteLine(line string) error {
	if c.closed || c.peer == nil {
		return ErrClosed
	}
	if c.peer.closed {
		return fmt.Errorf("%w: peer %s", ErrClosed, c.remote)
	}
	if c.peer.handler != nil {
		resp := c.peer.handler(line)
		c.inbox = append(c.inbox, resp)
		return nil
	}
	c.peer.inbox = append(c.peer.inbox, line)
	return nil
}

// ReadLine pops the oldest line from this end's inbox.
func (c *Conn) ReadLine() (string, error) {
	if c.closed {
		return "", ErrClosed
	}
	if len(c.inbox) == 0 {
		return "", ErrNoData
	}
	line := c.inbox[0]
	c.inbox = c.inbox[1:]
	return line, nil
}

// ReadAll drains the inbox as one string.
func (c *Conn) ReadAll() string {
	out := strings.Join(c.inbox, "\n")
	c.inbox = nil
	return out
}

// Exec is the attacker-side convenience: send a command line to the
// served shell and return its output.
func (c *Conn) Exec(cmd string) (string, error) {
	if err := c.WriteLine(cmd); err != nil {
		return "", err
	}
	return c.ReadLine()
}

// Close shuts this end down.
func (c *Conn) Close() { c.closed = true }
