package client

import (
	"context"

	"repro/wire"
)

// wait blocks until call completes or ctx ends. A context cut abandons the
// call — it fails with ctx.Err() and its late response, if one ever
// arrives, is discarded — but the connection itself stays up, exactly like
// a CallTimeout expiry.
func (c *Conn) wait(ctx context.Context, call *Call) error {
	select {
	case <-call.Done():
		return call.Err
	case <-ctx.Done():
		c.failCall(call.id, ctx.Err())
		<-call.Done()
		return call.Err
	}
}

// GetContext is Get bounded by ctx.
func (c *Conn) GetContext(ctx context.Context, key uint64) (uint64, bool, error) {
	call := c.GetAsync(key)
	if err := c.wait(ctx, call); err != nil {
		return 0, false, err
	}
	return call.Resp.Val, call.Resp.Status == wire.StatusOK, nil
}

// PutContext is Put bounded by ctx. A ctx cut leaves the write's outcome
// unknown: the request may still reach the server and be applied.
func (c *Conn) PutContext(ctx context.Context, key, val uint64) error {
	return c.wait(ctx, c.PutAsync(key, val))
}

// DeleteContext is Delete bounded by ctx (same unknown-outcome caveat as
// PutContext).
func (c *Conn) DeleteContext(ctx context.Context, key uint64) (bool, error) {
	call := c.DeleteAsync(key)
	if err := c.wait(ctx, call); err != nil {
		return false, err
	}
	return call.Resp.Status == wire.StatusOK, nil
}

// ScanContext is Scan bounded by ctx.
func (c *Conn) ScanContext(ctx context.Context, lo, hi uint64, max int) ([]KV, error) {
	call := c.ScanAsync(lo, hi, max)
	if err := c.wait(ctx, call); err != nil {
		return nil, err
	}
	return call.Resp.Pairs, nil
}

// StatsContext is Stats bounded by ctx.
func (c *Conn) StatsContext(ctx context.Context) (wire.Stats, error) {
	call := c.StatsAsync()
	if err := c.wait(ctx, call); err != nil {
		return wire.Stats{}, err
	}
	return call.Resp.Stats, nil
}
