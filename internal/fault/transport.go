package fault

import (
	"context"
	"fmt"
	"time"

	"parajoin/internal/engine"
	"parajoin/internal/rel"
)

// Wrap interposes the injector on a transport: Send, CloseSend, and Recv
// consult the plan before delegating. Injected errors wrap both ErrInjected
// and engine.ErrTransport, so the query-level recovery path classifies them
// as retryable — exactly like the real network failures they stand in for.
//
// The wrapper embeds the inner transport, so metering, epoch cleanup and
// Close reach it unchanged.
func Wrap(t engine.Transport, inj *Injector) engine.Transport {
	return &transport{Transport: t, inj: inj}
}

type transport struct {
	engine.Transport
	inj *Injector
}

// wireErr upgrades an injected fault to a transport-layer error.
func wireErr(err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("%w: %w", engine.ErrTransport, err)
}

func (t *transport) Send(ctx context.Context, exchangeID, src, dst int, batch []rel.Tuple) error {
	delay, err := t.inj.Send(engine.PlanExchangeID(exchangeID), src)
	if delay > 0 {
		timer := time.NewTimer(delay)
		select {
		case <-timer.C:
		case <-ctx.Done():
			timer.Stop()
			return ctx.Err()
		}
	}
	if err != nil {
		return wireErr(err)
	}
	return t.Transport.Send(ctx, exchangeID, src, dst, batch)
}

func (t *transport) CloseSend(ctx context.Context, exchangeID, src int) error {
	if err := t.inj.CloseSend(engine.PlanExchangeID(exchangeID), src); err != nil {
		return wireErr(err)
	}
	return t.Transport.CloseSend(ctx, exchangeID, src)
}

func (t *transport) Recv(ctx context.Context, exchangeID, dst int) ([]rel.Tuple, bool, error) {
	if err := t.inj.Recv(engine.PlanExchangeID(exchangeID), dst); err != nil {
		return nil, false, wireErr(err)
	}
	return t.Transport.Recv(ctx, exchangeID, dst)
}
