package wire

import (
	"reflect"
	"testing"
)

// fuzzRequestSeeds returns one request per op: the rich codec cases, plus a
// table-only request for every op they do not cover.
func fuzzRequestSeeds() []*request {
	var seeds []*request
	covered := map[op]bool{}
	for _, req := range binRequestCases() {
		seeds = append(seeds, req)
		covered[req.Op] = true
	}
	for o := opQuote; o <= opCancel; o++ {
		if !covered[o] {
			seeds = append(seeds, &request{Op: o, Table: "t"})
		}
	}
	return seeds
}

// FuzzDecodeRequest feeds the request decoder arbitrary frame payloads. A
// payload either fails to decode or decodes to an envelope that re-encodes
// to a payload decoding to the same envelope; nothing panics.
func FuzzDecodeRequest(f *testing.F) {
	for _, req := range fuzzRequestSeeds() {
		f.Add(binEncode(f, func(s binSink) { encRequest(s, req) }))
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		decode := func(p []byte) (*request, error) {
			var d binReader
			d.reset(p)
			req := new(request)
			var in intern
			decRequest(&d, req, &in)
			return req, d.err()
		}
		req, err := decode(payload)
		if err != nil {
			return
		}
		again, err := decode(binEncode(t, func(s binSink) { encRequest(s, req) }))
		if err != nil {
			t.Fatalf("re-encoded request does not decode: %v", err)
		}
		if !reflect.DeepEqual(again, req) {
			t.Fatalf("round trip changed the request:\n got %+v\nwant %+v", again, req)
		}
	})
}

// FuzzDecodeResponse is FuzzDecodeRequest for responses, which the trusted
// proxy decodes from the untrusted provider.
func FuzzDecodeResponse(f *testing.F) {
	for _, resp := range binResponseCases() {
		f.Add(binEncode(f, func(s binSink) { encResponse(s, resp) }))
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		decode := func(p []byte) (*response, error) {
			var d binReader
			d.reset(p)
			resp := new(response)
			decResponse(&d, resp)
			return resp, d.err()
		}
		resp, err := decode(payload)
		if err != nil {
			return
		}
		again, err := decode(binEncode(t, func(s binSink) { encResponse(s, resp) }))
		if err != nil {
			t.Fatalf("re-encoded response does not decode: %v", err)
		}
		if !reflect.DeepEqual(again, resp) {
			t.Fatalf("round trip changed the response:\n got %+v\nwant %+v", again, resp)
		}
	})
}
