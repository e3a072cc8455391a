// Package use reads through the real internal/frame package: the
// //paralint:framebuf directive on frame.Read must reach importers as a
// BufOrigin fact, so retaining its payload is reported and copying it is
// not. The fixture is analysed, never run, so its reader is nil.
package use

import "paratune/internal/frame"

type conn struct {
	rbuf []byte
	held []byte
}

func (c *conn) next() error {
	p, err := frame.Read(nil, frame.MaxPayload, &c.rbuf)
	if err != nil {
		return err
	}
	c.held = p // want "stored to a struct field"
	c.held = append([]byte(nil), p...)
	return nil
}
