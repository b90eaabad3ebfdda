package cellmap

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
)

func testServer(t *testing.T) (*httptest.Server, *Map) {
	t.Helper()
	m, err := Build(0.5, "2016-12", fixtureInputs(t))
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	MountSource(mux, Static{M: m})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv, m
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

func TestHandlerLookup(t *testing.T) {
	srv, _ := testServer(t)
	var resp LookupResponse
	if code := getJSON(t, srv.URL+"/v1/lookup?ip=10.0.1.9", &resp); code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if !resp.Cellular || resp.Prefix != "10.0.0.0/23" || resp.ASN != 1 || resp.Country != "DE" {
		t.Errorf("response = %+v", resp)
	}
	if code := getJSON(t, srv.URL+"/v1/lookup?ip=203.0.113.9", &resp); code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if resp.Cellular {
		t.Error("non-cellular address reported cellular")
	}
}

func TestHandlerLookupErrors(t *testing.T) {
	srv, _ := testServer(t)
	for _, q := range []string{"", "?ip=", "?ip=not-an-ip"} {
		resp, err := http.Get(srv.URL + "/v1/lookup" + q)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("lookup%s returned %d", q, resp.StatusCode)
		}
		// Error answers are JSON with the right Content-Type, like the
		// success path — clients of a JSON API must never see text/plain.
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("lookup%s error Content-Type = %q", q, ct)
		}
		var e ErrorResponse
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
			t.Errorf("lookup%s error body is not JSON: %v", q, err)
		} else if e.Error == "" {
			t.Errorf("lookup%s error body has empty message", q)
		}
		resp.Body.Close()
	}
	// POST is rejected by the method-scoped route.
	resp, err := http.Post(srv.URL+"/v1/lookup?ip=10.0.0.1", "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Error("POST accepted")
	}
}

// TestWriteJSONEncodeFailure drives the 500 path: an unmarshalable value
// must yield a JSON error body with the JSON Content-Type, not a
// half-written 200 or a text/plain fallback.
func TestWriteJSONEncodeFailure(t *testing.T) {
	rec := httptest.NewRecorder()
	WriteJSON(rec, make(chan int))
	if rec.Code != http.StatusInternalServerError {
		t.Errorf("status = %d, want 500", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q", ct)
	}
	var e ErrorResponse
	if err := json.NewDecoder(rec.Body).Decode(&e); err != nil {
		t.Fatalf("500 body is not JSON: %v", err)
	}
	if e.Error == "" {
		t.Error("500 body has empty message")
	}
}

func TestHandlerInfo(t *testing.T) {
	srv, m := testServer(t)
	var info Info
	if code := getJSON(t, srv.URL+"/v1/info", &info); code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if info.Entries != m.Len() || info.Period != "2016-12" || info.Format != formatName {
		t.Errorf("info = %+v", info)
	}
}

func TestHandlerConcurrent(t *testing.T) {
	srv, _ := testServer(t)
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(srv.URL + "/v1/lookup?ip=10.0.4.200")
			if err != nil {
				errs <- err
				return
			}
			resp.Body.Close()
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
