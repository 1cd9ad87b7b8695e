package main

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"disasso/internal/dataset"
	"disasso/internal/server"
)

// TestDecodeEstimatesMatchesEncodingJSON checks the scanner against
// encoding/json: on every body both accept they must agree, and a body
// encoding/json rejects must be rejected. It also checks which bodies the
// scanner handles itself, so the fast path stays the common one.
func TestDecodeEstimatesMatchesEncodingJSON(t *testing.T) {
	resp := server.SupportResponse{Estimates: []server.ItemsetEstimate{
		{Itemset: dataset.Record{3}, Lower: 0, Upper: 12, Expected: 4.25},
		{Itemset: dataset.Record{1, 7, 4000}, Lower: 2, Upper: 2, Expected: 2},
		{Itemset: dataset.Record{9, 10}, Lower: 0, Upper: 1e9, Expected: 1.5e-7},
	}}
	var indented bytes.Buffer
	enc := json.NewEncoder(&indented)
	enc.SetIndent("", "  ")
	if err := enc.Encode(resp); err != nil {
		t.Fatal(err)
	}
	compact, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		body string
		fast bool // the scanner decodes it without falling back
	}{
		{"indented, as disassod writes it", indented.String(), true},
		{"compact", string(compact), true},
		{"keys reordered, extra keys", `{"version":3,"estimates":[{"expected":0.5,"x":{"a":[1,"s",true,null]},"upper":1,"itemset":[5],"lower":0}]}`, true},
		{"empty", `{"estimates":[]}`, true},
		{"escaped key", `{"estimates":[{"itemset":[1],"lower":0,"upper":1,"expected":0.5,"n\u0061me":"x"}]}`, false},
		{"key in another case", `{"estimates":[{"itemset":[1],"Lower":1,"upper":1,"expected":1}]}`, false},
		{"missing field", `{"estimates":[{"itemset":[1],"upper":1,"expected":1}]}`, false},
		{"null expected", `{"estimates":[{"itemset":[1],"lower":0,"upper":1,"expected":null}]}`, false},
		{"not JSON numbers", `{"estimates":[{"itemset":[1],"lower":0,"upper":1,"expected":nan}]}`, false},
		{"leading zero", `{"estimates":[{"itemset":[01],"lower":0,"upper":1,"expected":1}]}`, false},
		{"plus sign", `{"estimates":[{"itemset":[1],"lower":+0,"upper":1,"expected":1}]}`, false},
		{"term out of range", `{"estimates":[{"itemset":[2147483648],"lower":0,"upper":1,"expected":1}]}`, false},
		{"integer limits", `{"estimates":[{"itemset":[-2147483648,2147483647,-0],"lower":-9223372036854775808,"upper":9223372036854775807,"expected":1}]}`, true},
		{"count out of range", `{"estimates":[{"itemset":[1],"lower":0,"upper":9223372036854775808,"expected":1}]}`, false},
		{"fraction for a count", `{"estimates":[{"itemset":[1],"lower":0.5,"upper":1,"expected":1}]}`, false},
		{"truncated", indented.String()[:indented.Len()/2], false},
		{"trailing garbage", `{"estimates":[]} x`, false},
	} {
		var want struct {
			Estimates []estimate `json:"estimates"`
		}
		wantErr := json.Unmarshal([]byte(c.body), &want)
		got, err := decodeEstimates([]byte(c.body))
		if (err != nil) != (wantErr != nil) {
			t.Errorf("%s: error %v, encoding/json %v", c.name, err, wantErr)
			continue
		}
		if err == nil && !reflect.DeepEqual(got, want.Estimates) && !(len(got) == 0 && len(want.Estimates) == 0) {
			t.Errorf("%s: decoded %+v, encoding/json %+v", c.name, got, want.Estimates)
		}
		s := scanner{b: []byte(c.body)}
		if _, err := s.response(); (err == nil) != c.fast {
			t.Errorf("%s: scanner error %v, want fast path %v", c.name, err, c.fast)
		}
	}
}
