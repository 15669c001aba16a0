package serve

import (
	"encoding/json"
	"net/http"
	"testing"

	"prestroid/internal/api"
)

// plainBodySeeds are bodies on both sides of plainSQLBody's grammar: the
// plain shape with every kind of padding, and one step off it each way.
var plainBodySeeds = []string{
	`{"sql":"SELECT a FROM t WHERE a > 5"}`,
	" \t\r\n{ \"sql\" :\n\"SELECT a FROM t\"\t} \n",
	`{"sql":""}`,
	`{"sql":" ~!#$%&'()*+,-./:;<=>?@[]^_{|}` + "\x7f" + `"}`,
	`{"sql":"SELECT a FROM t","model":"m"}`,
	`{"model":"m","sql":"SELECT a FROM t"}`,
	`{"sql":"it\"s"}`,
	`{"sql":"\u0053ELECT a FROM t"}`,
	`{"SQL":"SELECT a FROM t"}`,
	`{"sql":"a","sql":"b"}`,
	`null`,
	`{"sql":"café"}`,
	`{"sql":"x"}x`,
	"\ufeff{\"sql\":\"x\"}",
}

func TestPlainSQLBodyAccepts(t *testing.T) {
	for body, want := range map[string]string{
		`{"sql":"SELECT a FROM t WHERE a > 5"}`:         "SELECT a FROM t WHERE a > 5",
		" \t\r\n{ \"sql\" :\n\"SELECT a FROM t\"\t} \n": "SELECT a FROM t",
		`{"sql":""}`:      "",
		`{"sql":"/x' ~"}`: "/x' ~",
	} {
		got, ok := plainSQLBody([]byte(body))
		if !ok || got != want {
			t.Errorf("plainSQLBody(%q) = %q, %v; want %q, true", body, got, ok, want)
		}
	}
	// The scan allocates the query string and nothing else.
	body := []byte(`{"sql":"SELECT a FROM t WHERE a > 5"}`)
	if n := testing.AllocsPerRun(100, func() { plainSQLBody(body) }); n != 1 {
		t.Errorf("plainSQLBody: %.0f allocs, want 1", n)
	}
}

// TestPlainSQLBodyDeclines lists bodies the scan must hand to
// encoding/json: each either carries more than the query, needs unescaping,
// or is not the plain object at all.
func TestPlainSQLBodyDeclines(t *testing.T) {
	for _, body := range []string{
		`{"sql":"SELECT a FROM t","model":"m"}`,
		`{"model":"m","sql":"SELECT a FROM t"}`,
		`{"sql":"it\"s"}`,
		`{"sql":"a\\b"}`,
		`{"sql":"\u0053ELECT a FROM t"}`,
		`{"SQL":"SELECT a FROM t"}`,
		`{"Sql":"SELECT a FROM t"}`,
		`{"sql":"a","sql":"b"}`,
		`{"sql":null}`,
		`{"sql":1}`,
		`null`,
		`{}`,
		``,
		`{"sql":"café"}`,
		"{\"sql\":\"a\x80\"}",
		"{\"sql\":\"a\nb\"}",
		"{\"sql\":\"a\tb\"}",
		`{"sql":"x"}x`,
		`{"sql":"x"}}`,
		`{"sql":"x"`,
		`{"sql":"x`,
		`{"sql":`,
		"\ufeff{\"sql\":\"x\"}",
		"\v{\"sql\":\"x\"}",
		`{"sql":"x",}`,
	} {
		if got, ok := plainSQLBody([]byte(body)); ok {
			t.Errorf("plainSQLBody(%q) accepted it as %q", body, got)
		}
	}
}

// FuzzPlainSQLBody holds the scan to encoding/json: whenever it accepts a
// body, json.Unmarshal into a PredictRequest succeeds with the same value.
func FuzzPlainSQLBody(f *testing.F) {
	for _, body := range plainBodySeeds {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		sql, ok := plainSQLBody(body)
		if !ok {
			return
		}
		var want api.PredictRequest
		if err := json.Unmarshal(body, &want); err != nil {
			t.Fatalf("plainSQLBody(%q) accepted a body encoding/json rejects: %v", body, err)
		}
		if got := (api.PredictRequest{SQL: sql}); got != want {
			t.Fatalf("plainSQLBody(%q) = %+v, encoding/json %+v", body, got, want)
		}
	})
}

// TestMalformedBodyEnvelopes pins the answer to each malformed predict body
// byte for byte, as recorded before the plain-body scan existed: a body the
// scan declines reaches encoding/json, whose error text is the envelope's.
func TestMalformedBodyEnvelopes(t *testing.T) {
	srv, _ := newTestServer(t)
	for _, tc := range []struct {
		body   string
		status int
		want   string
	}{
		{"", 400, "{\"error\":{\"code\":\"bad_request\",\"message\":\"bad request body: unexpected end of JSON input\"}}\n"},
		{" ", 400, "{\"error\":{\"code\":\"bad_request\",\"message\":\"bad request body: unexpected end of JSON input\"}}\n"},
		{"{", 400, "{\"error\":{\"code\":\"bad_request\",\"message\":\"bad request body: unexpected end of JSON input\"}}\n"},
		{"}", 400, "{\"error\":{\"code\":\"bad_request\",\"message\":\"bad request body: invalid character '}' looking for beginning of value\"}}\n"},
		{"[]", 400, "{\"error\":{\"code\":\"bad_request\",\"message\":\"bad request body: json: cannot unmarshal array into Go value of type api.PredictRequest\"}}\n"},
		{"null", 400, "{\"error\":{\"code\":\"bad_request\",\"message\":\"missing field: sql\"}}\n"},
		{"{}", 400, "{\"error\":{\"code\":\"bad_request\",\"message\":\"missing field: sql\"}}\n"},
		{"\"sql\"", 400, "{\"error\":{\"code\":\"bad_request\",\"message\":\"bad request body: json: cannot unmarshal string into Go value of type api.PredictRequest\"}}\n"},
		{"{\"sql\":", 400, "{\"error\":{\"code\":\"bad_request\",\"message\":\"bad request body: unexpected end of JSON input\"}}\n"},
		{"{\"sql\"", 400, "{\"error\":{\"code\":\"bad_request\",\"message\":\"bad request body: unexpected end of JSON input\"}}\n"},
		{"{\"sql\":\"x\"", 400, "{\"error\":{\"code\":\"bad_request\",\"message\":\"bad request body: unexpected end of JSON input\"}}\n"},
		{"{\"sql\":\"x\"}x", 400, "{\"error\":{\"code\":\"bad_request\",\"message\":\"bad request body: invalid character 'x' after top-level value\"}}\n"},
		{"{\"sql\":\"x\"} {}", 400, "{\"error\":{\"code\":\"bad_request\",\"message\":\"bad request body: invalid character '{' after top-level value\"}}\n"},
		{"{\"sql\":\"x\",}", 400, "{\"error\":{\"code\":\"bad_request\",\"message\":\"bad request body: invalid character '}' looking for beginning of object key string\"}}\n"},
		{"{\"sql\":1}", 400, "{\"error\":{\"code\":\"bad_request\",\"message\":\"bad request body: json: cannot unmarshal number into Go struct field PredictRequest.sql of type string\"}}\n"},
		{"{\"sql\":null}", 400, "{\"error\":{\"code\":\"bad_request\",\"message\":\"missing field: sql\"}}\n"},
		{"{\"sql\":\"a\\x\"}", 400, "{\"error\":{\"code\":\"bad_request\",\"message\":\"bad request body: invalid character 'x' in string escape code\"}}\n"},
		{"{\"sql\":\"a\nb\"}", 400, "{\"error\":{\"code\":\"bad_request\",\"message\":\"bad request body: invalid character '\\\\n' in string literal\"}}\n"},
		{"{\"sql\":\"a\tb\"}", 400, "{\"error\":{\"code\":\"bad_request\",\"message\":\"bad request body: invalid character '\\\\t' in string literal\"}}\n"},
		{"{\"sql\":\"\\ud800\"}", 422, "{\"error\":{\"code\":\"unprocessable\",\"message\":\"parse: sqlparse: expected \\\"SELECT\\\", got \\\"\ufffd\\\" at 0\"}}\n"},
		{"\ufeff{\"sql\":\"SELECT a FROM t\"}", 400, "{\"error\":{\"code\":\"bad_request\",\"message\":\"bad request body: invalid character 'ï' looking for beginning of value\"}}\n"},
		{"{\"model\":5,\"sql\":\"SELECT a FROM t\"}", 400, "{\"error\":{\"code\":\"bad_request\",\"message\":\"bad request body: json: cannot unmarshal number into Go struct field PredictRequest.model of type string\"}}\n"},
		{"{'sql':'x'}", 400, "{\"error\":{\"code\":\"bad_request\",\"message\":\"bad request body: invalid character '\\\\'' looking for beginning of object key string\"}}\n"},
		{"{sql:\"x\"}", 400, "{\"error\":{\"code\":\"bad_request\",\"message\":\"bad request body: invalid character 's' looking for beginning of object key string\"}}\n"},
		{"{\"sql\":\"\"}", 400, "{\"error\":{\"code\":\"bad_request\",\"message\":\"missing field: sql\"}}\n"},
		{"{\"sql\" \"x\"}", 400, "{\"error\":{\"code\":\"bad_request\",\"message\":\"bad request body: invalid character '\\\"' after object key\"}}\n"},
		{"{\"sql\":\"x\"}}", 400, "{\"error\":{\"code\":\"bad_request\",\"message\":\"bad request body: invalid character '}' after top-level value\"}}\n"},
		{"{\"sql\":\"x\"]", 400, "{\"error\":{\"code\":\"bad_request\",\"message\":\"bad request body: invalid character ']' after object key:value pair\"}}\n"},
		{"{\"sql\":\"SELECT a FROM t\", \"model\": [1]}", 400, "{\"error\":{\"code\":\"bad_request\",\"message\":\"bad request body: json: cannot unmarshal array into Go struct field PredictRequest.model of type string\"}}\n"},
	} {
		w := post(t, srv, "/v1/predict", tc.body)
		if w.Code != tc.status || w.Body.String() != tc.want {
			t.Errorf("predict %q = %d %q, want %d %q", tc.body, w.Code, w.Body, tc.status, tc.want)
		}
	}
	if w := post(t, srv, "/v1/predict", `{"sql":"SELECT a FROM t"}`); w.Code != http.StatusOK {
		t.Fatalf("plain body = %d: %s", w.Code, w.Body)
	}
}
