// Runtime monitoring: workload curves as an enforceable contract, served
// over HTTP. The schedulability argument of a deployed system assumes the
// curves; this example boots the wcmd characterization service in-process
// (httptest — runnable offline), installs the curves as an admission
// contract, streams a healthy execution, injects a fault (an activation
// overrunning far past anything the curves admit) and shows the service
// pinpointing the violated window and flipping the stream's verdict — plus
// the eq. (9)/(10) minimum-frequency query against the live window and the
// batch checker (Admits) auditing the recorded trace after the fact.
//
// Run with:
//
//	go run ./examples/monitoring
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"

	"wcm"
)

// call sends one request and decodes its JSON answer, failing on any
// status but 200.
func call(method, url string, body any) (map[string]any, error) {
	var rd io.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			return nil, err
		}
		rd = bytes.NewReader(buf)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s %s: %d %v", method, url, resp.StatusCode, m)
	}
	return m, nil
}

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run plays the whole scenario against an in-process server and prints
// its report to out.
func run(out io.Writer) error {
	task := wcm.PollingTask{Period: 10, ThetaMin: 30, ThetaMax: 50, Ep: 9, Ec: 2}
	w, err := task.Workload(64)
	if err != nil {
		return err
	}

	// Boot the characterization service in-process.
	srv, err := wcm.NewWCMDServer(wcm.WCMDServerConfig{
		Stream: wcm.CurveStreamConfig{Window: 256, MaxK: 64},
	})
	if err != nil {
		return err
	}
	hts := httptest.NewServer(srv.Handler())
	defer hts.Close()

	// Install the model's curves as the stream's admission contract.
	if _, err := call("POST", hts.URL+"/v1/streams/poller/contract", map[string]any{
		"upper": w.Upper.Values(), "lower": w.Lower.Values(), "window": 64,
	}); err != nil {
		return err
	}

	// A healthy execution: 200 activations straight from the model, one
	// every polling period.
	healthy, err := wcm.GeneratePollingDemands(task.Period, task.ThetaMin, task.ThetaMax,
		task.Ep, task.Ec, 200, 7)
	if err != nil {
		return err
	}
	ts := make([]int64, len(healthy))
	for i := range ts {
		ts[i] = int64(i) * task.Period * 1000 // period in µs → ns
	}
	res, err := call("POST", hts.URL+"/v1/streams/poller/ingest",
		map[string]any{"t": ts, "demand": healthy})
	if err != nil {
		return err
	}
	if res["violation"] != nil {
		return fmt.Errorf("false alarm on healthy run: %v", res["violation"])
	}
	fmt.Fprintf(out, "healthy run: %v activations ingested, no violations\n", res["total"])

	// While the stream is healthy, ask the service the paper's design
	// question (eq. 9 vs eq. 10): how slow may the processor run?
	mf, err := call("GET", hts.URL+"/v1/streams/poller/minfreq?b=4", nil)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "min frequency for a 4-event FIFO: %.3g Hz by γᵘ, %.3g Hz by WCET (%.0f%% saved)\n",
		mf["gamma_hz"], mf["wcet_hz"], 100*mf["saving"].(float64))

	// Fault injection: a cache-thrash outlier takes 3× the modeled WCET.
	// The service's per-stream monitor flags the tightest violated window
	// in the ingest response itself.
	fault := []int64{3 * task.Ep}
	res, err = call("POST", hts.URL+"/v1/streams/poller/ingest",
		map[string]any{"t": []int64{ts[len(ts)-1] + task.Period*1000}, "demand": fault})
	if err != nil {
		return err
	}
	v, ok := res["violation"].(map[string]any)
	if !ok {
		return errors.New("service missed the fault")
	}
	fmt.Fprintf(out, "fault detected: window of %v demands %v cycles, γᵘ allows %v\n",
		v["len"], v["sum"], v["bound"])

	// The stream's verdict has flipped for good.
	verdict, err := call("GET", hts.URL+"/v1/streams/poller/verdict", nil)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "verdict: admitted=%v after %v violation(s)\n",
		verdict["admitted"], verdict["violations"])

	// Post-mortem audit of the recorded trace with the batch checker.
	faulty := append(append(wcm.DemandTrace{}, healthy...), fault...)
	viol, err := w.Admits(faulty)
	if err != nil {
		return err
	}
	if viol == nil {
		return errors.New("audit missed the fault")
	}
	fmt.Fprintf(out, "audit: tightest violated window starts at activation %d (length %d)\n",
		viol.Start, viol.Len)
	fmt.Fprintln(out, "\nThe guarantees of the RMS test and the FIFO dimensioning are exactly")
	fmt.Fprintln(out, "as strong as these curves — and the service makes them checkable live.")
	return nil
}
