package net

import (
	"context"
	gonet "net"
	"strings"
)

// Network guesses the network for an address: paths ("/run/x.sock", "./x")
// are unix sockets, everything else is TCP — so one -dist-listen/-dist-join
// flag covers both transports.
func Network(addr string) string {
	if strings.HasPrefix(addr, "/") || strings.HasPrefix(addr, "./") || strings.HasPrefix(addr, "@") {
		return "unix"
	}
	return "tcp"
}

// Dial makes one connection attempt; the caller owns any retry policy.
func Dial(ctx context.Context, addr string, cfg Config) (*Conn, error) {
	var d gonet.Dialer
	c, err := d.DialContext(ctx, Network(addr), addr)
	if err != nil {
		return nil, classify("dial", err)
	}
	return NewConn(c, cfg), nil
}
