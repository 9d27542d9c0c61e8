package wire

import "testing"

// The codec's allocation contract, pinned with testing.AllocsPerRun:
// encoding into a reused buffer never allocates, fixed-size decodes never
// allocate, and variable-size decodes allocate exactly their payload slice.
// The server's zero-allocation read path is built on these guarantees.

func TestAppendRequestAllocFree(t *testing.T) {
	pairs := []KV{{1, 2}, {3, 4}}
	reqs := []Request{
		{ID: 1, Op: OpGet, Key: 7},
		{ID: 2, Op: OpPut, Key: 7, Val: 9},
		{ID: 3, Op: OpDelete, Key: 7},
		{ID: 4, Op: OpPutBatch, Pairs: pairs},
		{ID: 5, Op: OpScan, Lo: 1, Hi: 100, Max: 10},
		{ID: 6, Op: OpStats},
		{ID: 10, Op: OpGetK, KKey: []byte("byte key")},
		{ID: 11, Op: OpPutK, KKey: []byte("byte key"), VVal: []byte("value bytes")},
		{ID: 12, Op: OpDeleteK, KKey: []byte("byte key")},
		{ID: 13, Op: OpScanK, KLo: []byte("a"), KHi: []byte("z"), Max: 10},
	}
	buf := make([]byte, 0, 1024)
	for i := range reqs {
		r := &reqs[i]
		if allocs := testing.AllocsPerRun(100, func() {
			var err error
			buf, err = AppendRequest(buf[:0], r)
			if err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("AppendRequest(%s) allocs/op = %v, want 0", r.Op, allocs)
		}
	}
}

func TestAppendResponseAllocFree(t *testing.T) {
	pairs := []KV{{1, 2}, {3, 4}, {5, 6}}
	resps := []Response{
		{ID: 1, Op: OpGet, Status: StatusOK, Val: 9},
		{ID: 2, Op: OpPut, Status: StatusOK},
		{ID: 3, Op: OpGet, Status: StatusNotFound},
		{ID: 4, Op: OpScan, Status: StatusOK, Pairs: pairs},
		{ID: 5, Op: OpStats, Status: StatusOK, Stats: Stats{Ops: 1}},
		{ID: 8, Op: OpGetK, Status: StatusOK, VVal: []byte("byte-keyed value")},
		{ID: 9, Op: OpPutK, Status: StatusOK},
		{ID: 10, Op: OpScanK, Status: StatusOK, KPairs: []KKV{{Key: []byte("k1"), Val: []byte("a")}, {Key: []byte("k2"), Val: []byte("bb")}}},
	}
	buf := make([]byte, 0, 1024)
	for i := range resps {
		r := &resps[i]
		if allocs := testing.AllocsPerRun(100, func() {
			var err error
			buf, err = AppendResponse(buf[:0], r)
			if err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("AppendResponse(%s/%s) allocs/op = %v, want 0", r.Op, r.Status, allocs)
		}
	}
}

func TestDecodeRoundTripAllocs(t *testing.T) {
	encodeReq := func(r *Request) []byte {
		b, err := AppendRequest(nil, r)
		if err != nil {
			t.Fatal(err)
		}
		return b[8:] // strip the frame header: decoders take the body
	}
	encodeResp := func(r *Response) []byte {
		b, err := AppendResponse(nil, r)
		if err != nil {
			t.Fatal(err)
		}
		return b[8:]
	}

	// Fixed-size request decodes are allocation-free.
	for _, r := range []Request{
		{ID: 1, Op: OpGet, Key: 7},
		{ID: 2, Op: OpPut, Key: 7, Val: 9},
		{ID: 3, Op: OpDelete, Key: 7},
		{ID: 5, Op: OpScan, Lo: 1, Hi: 100, Max: 10},
		{ID: 6, Op: OpStats},
	} {
		body := encodeReq(&r)
		if allocs := testing.AllocsPerRun(100, func() {
			if _, err := DecodeRequest(body); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("DecodeRequest(%s) allocs/op = %v, want 0", r.Op, allocs)
		}
	}

	// PutBatch allocates exactly the pairs slice.
	batch := encodeReq(&Request{ID: 4, Op: OpPutBatch, Pairs: []KV{{1, 2}, {3, 4}}})
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := DecodeRequest(batch); err != nil {
			t.Fatal(err)
		}
	}); allocs != 1 {
		t.Errorf("DecodeRequest(PutBatch) allocs/op = %v, want 1 (the pairs slice)", allocs)
	}

	// Fixed-size response decodes are allocation-free.
	for _, r := range []Response{
		{ID: 1, Op: OpGet, Status: StatusOK, Val: 9},
		{ID: 2, Op: OpPut, Status: StatusOK},
		{ID: 3, Op: OpGet, Status: StatusNotFound},
		{ID: 5, Op: OpStats, Status: StatusOK, Stats: Stats{Ops: 1}},
	} {
		body := encodeResp(&r)
		if allocs := testing.AllocsPerRun(100, func() {
			if _, err := DecodeResponse(body); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("DecodeResponse(%s/%s) allocs/op = %v, want 0", r.Op, r.Status, allocs)
		}
	}

	// Scan responses allocate exactly the pairs slice.
	scan := encodeResp(&Response{ID: 4, Op: OpScan, Status: StatusOK, Pairs: []KV{{1, 2}, {3, 4}}})
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := DecodeResponse(scan); err != nil {
			t.Fatal(err)
		}
	}); allocs != 1 {
		t.Errorf("DecodeResponse(Scan) allocs/op = %v, want 1 (the pairs slice)", allocs)
	}

	// Byte-key decodes allocate exactly their payload: GetK/DeleteK
	// requests copy the key (one alloc), PutK slices key and value out of
	// one arena (one), ScanK requests copy both bounds into one arena
	// (one), GetK responses copy the value (one), and ScanK responses
	// slice keys and values out of one shared arena (two).
	for _, r := range []Request{
		{ID: 10, Op: OpGetK, KKey: []byte("byte key")},
		{ID: 11, Op: OpPutK, KKey: []byte("byte key"), VVal: []byte("value bytes")},
		{ID: 12, Op: OpDeleteK, KKey: []byte("byte key")},
		{ID: 13, Op: OpScanK, KLo: []byte("a"), KHi: []byte("z"), Max: 10},
	} {
		body := encodeReq(&r)
		if allocs := testing.AllocsPerRun(100, func() {
			if _, err := DecodeRequest(body); err != nil {
				t.Fatal(err)
			}
		}); allocs != 1 {
			t.Errorf("DecodeRequest(%s) allocs/op = %v, want 1", r.Op, allocs)
		}
	}
	getk := encodeResp(&Response{ID: 14, Op: OpGetK, Status: StatusOK, VVal: []byte("value bytes")})
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := DecodeResponse(getk); err != nil {
			t.Fatal(err)
		}
	}); allocs != 1 {
		t.Errorf("DecodeResponse(GetK) allocs/op = %v, want 1 (the value copy)", allocs)
	}
	scank := encodeResp(&Response{ID: 15, Op: OpScanK, Status: StatusOK,
		KPairs: []KKV{{Key: []byte("k1"), Val: []byte("aaa")}, {Key: []byte("k2"), Val: []byte("bbbb")}}})
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := DecodeResponse(scank); err != nil {
			t.Fatal(err)
		}
	}); allocs != 2 {
		t.Errorf("DecodeResponse(ScanK) allocs/op = %v, want 2 (pairs slice + arena)", allocs)
	}
}
