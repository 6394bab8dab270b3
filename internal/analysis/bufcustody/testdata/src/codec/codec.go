// Fixtures for the bufcustody analyzer. encodeLeak is the historical
// regression: an early answer codec's shape, where the error return path
// dropped the pooled buffer.
package codec

import "wire"

// encodeLeak reproduces that codec's leak: the buffer is
// handed to AppendAnswerCore, but the error path returns without
// releasing it.
func encodeLeak(a int) ([]byte, error) {
	buf := wire.GetBuffer()
	out, err := wire.AppendAnswerCore(buf, a)
	if err != nil {
		return nil, err // want `pooled buffer from .* leaks on this return path`
	}
	return out, nil
}

// encodeFixed is the post-PR 4 shape: the error path releases, the
// success path transfers ownership to the caller.
func encodeFixed(a int) ([]byte, error) {
	buf := wire.GetBuffer()
	out, err := wire.AppendAnswerCore(buf, a)
	if err != nil {
		wire.PutBuffer(buf)
		return nil, err
	}
	return out, nil
}

// deferredRelease is also fine: a deferred PutBuffer covers every exit.
func deferredRelease(a int) error {
	buf := wire.GetBuffer()
	defer wire.PutBuffer(buf)
	_, err := wire.AppendAnswerCore(buf, a)
	return err
}

func doublePut() {
	buf := wire.GetBuffer()
	wire.PutBuffer(buf)
	wire.PutBuffer(buf) // want `double PutBuffer`
}

func discarded() {
	wire.GetBuffer() // want `GetBuffer result discarded`
}

func inconsistent(ok bool) {
	buf := wire.GetBuffer() // want `released or transferred on some paths but still held on others`
	if ok {
		wire.PutBuffer(buf)
	}
}

func scopeLeak() {
	buf := wire.GetBuffer() // want `leaks at end of scope`
	_ = buf
}

type resp struct{ b []byte }

// transfer embeds the buffer in a returned value: ownership moves to
// the caller, no finding.
func transfer() resp {
	buf := wire.GetBuffer()
	return resp{b: buf}
}

func putAfterStore(sink *resp) {
	buf := wire.GetBuffer()
	sink.b = buf
	wire.PutBuffer(buf) // want `PutBuffer after ownership`
}

// overwrite rebinds the only alias while the first buffer is still
// held. The finding anchors at the variable's declaration.
func overwrite() {
	buf := wire.GetBuffer() // want `overwritten while still held`
	buf = wire.GetBuffer()
	wire.PutBuffer(buf)
}

// aliasChain follows the codebase's append/Append* flow conventions:
// one custody token across the whole chain, released once.
func aliasChain(a int) {
	buf := wire.GetBuffer()
	buf = append(buf, 1, 2, 3)
	out, err := wire.AppendAnswerCore(buf[:0], a)
	if err != nil {
		wire.PutBuffer(buf)
		return
	}
	wire.PutBuffer(out)
}

// suppressed demonstrates a justified ignore directive.
func suppressed() {
	buf := wire.GetBuffer() //authlint:ignore bufcustody fixture demonstrating a justified suppression
	_ = buf
}
