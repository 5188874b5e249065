package service

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzSearchSpec drives the POST /v1/search submission pipeline over
// arbitrary JSON: strict decode, defaulting, validation — none of it may
// panic whatever the bytes say (the handler runs exactly this path on
// unauthenticated input). Specs that validate must additionally survive the
// wire round trip and still validate: a job listed by GET /v1/jobs carries
// its submitted spec, and a client must be able to resubmit it verbatim.
func FuzzSearchSpec(f *testing.F) {
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"objective":"minimize-cost-steptime","arch":"H100","ranks":[128,1024],"dap":[8],"fail_lo":1e-6,"fail_hi":1e-2,"budget":24}`))
	f.Add([]byte(`{"objective":"maximize-flops"}`))
	f.Add([]byte(`{"fail_lo":1,"fail_hi":0.5,"tolerance":-3,"cliff_goodput":7}`))
	f.Add([]byte(`{"ranks":[0,-5],"dap":[3],"mode":"guess","budget":1,"sim_workers":-2}`))
	f.Add([]byte(`{"restart_cost_s":1e308,"steps":-1}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var spec SearchJobSpec
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		if dec.Decode(&spec) != nil {
			return // refused at the handler with 400
		}
		if err := spec.SearchSpec().WithDefaults().Validate(); err != nil {
			return // refused at Submit with 400
		}
		blob, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("accepted spec failed to marshal: %+v: %v", spec, err)
		}
		var back SearchJobSpec
		if err := json.Unmarshal(blob, &back); err != nil {
			t.Fatalf("round trip of accepted spec rejected: %s: %v", blob, err)
		}
		if err := back.SearchSpec().WithDefaults().Validate(); err != nil {
			t.Fatalf("round trip broke validity: %s: %v", blob, err)
		}
	})
}
