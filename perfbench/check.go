package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"

	"sigmund"
	"sigmund/internal/guard"
	"sigmund/internal/pipeline"
	"sigmund/internal/sched"
	"sigmund/internal/serving"
)

// sameRecs reports whether two answers list the same items with the same
// scores in the same order.
func sameRecs(a, b []serving.Recommendation) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Item != b[i].Item || math.Float64bits(a[i].Score) != math.Float64bits(b[i].Score) {
			return false
		}
	}
	return true
}

// checkAnswer validates the recommendations one request got while the
// served generation was between lo and hi (inclusive): at most k of them,
// at least one, and for a sampled request exactly the reference answer of
// some generation in [lo, hi].
func (t *traffic) checkAnswer(req *request, recs []serving.Recommendation, lo, hi int64) error {
	if len(recs) == 0 || len(recs) > servK {
		return fmt.Errorf("%d recommendations, want 1..%d", len(recs), servK)
	}
	if req.ref < 0 {
		return nil
	}
	for g := lo; g <= hi; g++ {
		if g >= 1 && sameRecs(recs, t.refs[g%variants][req.ref]) {
			return nil
		}
	}
	return fmt.Errorf("answer for %s %v matches no reference of generations %d..%d", req.tenant, req.ctx, lo, hi)
}

// checkHTTP validates one /recommend response against the generation the
// store had committed when it was sent (want): status 200, a body in the
// codec asked for, the requested retailer, generation want or want-1, and
// 1..k recommendations. A sampled request's body is decoded in full and
// must equal the reference answer of its generation. The rest are checked
// in place, without allocating, so the checker does not add to the
// garbage the server's requests pay for.
func (t *traffic) checkHTTP(req *request, c codec, status int, body []byte, want int64) error {
	if status != 200 {
		return fmt.Errorf("status %d", status)
	}
	scan := scanJSON
	if c == codecBinary {
		scan = scanBinary
	}
	retailer, version, count, err := scan(body)
	if err != nil {
		return err
	}
	if string(retailer) != string(req.tenant) {
		return fmt.Errorf("response names retailer %q, want %q", retailer, req.tenant)
	}
	if version != want && version != want-1 {
		return fmt.Errorf("response carries generation %d, want %d or %d", version, want, want-1)
	}
	if count == 0 || count > servK {
		return fmt.Errorf("%d recommendations, want 1..%d", count, servK)
	}
	if req.ref < 0 {
		return nil
	}
	recs, err := decodeRecs(c, body)
	if err != nil {
		return err
	}
	return t.checkAnswer(req, recs, version, version)
}

// binaryHeader is the binary codec's fixed prefix: magic, version and the
// retailer's length (serving.AppendRecsResponse).
const binaryHeader = 4 + 8 + 2

// scanBinary reads a binary response's retailer, generation and
// recommendation count in place, and checks the body's length matches.
func scanBinary(b []byte) (retailer []byte, version int64, count int, err error) {
	if len(b) < binaryHeader || string(b[:4]) != "SRB1" {
		return nil, 0, 0, fmt.Errorf("not a binary recs response (%d bytes)", len(b))
	}
	version = int64(binary.LittleEndian.Uint64(b[4:12]))
	n := int(binary.LittleEndian.Uint16(b[12:14]))
	if len(b) < binaryHeader+n+4 {
		return nil, 0, 0, fmt.Errorf("truncated binary recs response (%d bytes)", len(b))
	}
	retailer = b[binaryHeader : binaryHeader+n]
	count = int(binary.LittleEndian.Uint32(b[binaryHeader+n:]))
	if rest := len(b) - binaryHeader - n - 4; rest != count*12 {
		return nil, 0, 0, fmt.Errorf("binary recs response claims %d recs in %d bytes", count, rest)
	}
	return retailer, version, count, nil
}

// scanJSON reads a JSON response's retailer, generation and
// recommendation count in place: the values of its "retailer" and
// "version" keys and the number of "item" keys, in a body that must be one
// object.
func scanJSON(b []byte) (retailer []byte, version int64, count int, err error) {
	body := bytes.TrimSpace(b)
	if len(body) < 2 || body[0] != '{' || body[len(body)-1] != '}' {
		return nil, 0, 0, fmt.Errorf("not a JSON object (%d bytes)", len(b))
	}
	v := jsonValue(body, `"retailer":`)
	if len(v) < 2 || v[0] != '"' {
		return nil, 0, 0, errors.New(`JSON response without a "retailer" string`)
	}
	end := bytes.IndexByte(v[1:], '"')
	if end < 0 {
		return nil, 0, 0, errors.New(`unterminated "retailer" string`)
	}
	retailer = v[1 : 1+end]
	v = jsonValue(body, `"version":`)
	digits := 0
	for digits < len(v) && v[digits] >= '0' && v[digits] <= '9' {
		version = version*10 + int64(v[digits]-'0')
		digits++
	}
	if digits == 0 {
		return nil, 0, 0, errors.New(`JSON response without a "version" number`)
	}
	if jsonValue(body, `"recommendations":`) == nil {
		return nil, 0, 0, errors.New(`JSON response without "recommendations"`)
	}
	return retailer, version, bytes.Count(body, []byte(`"item":`)), nil
}

// jsonValue returns what follows key in body, spaces skipped; nil when
// key is absent.
func jsonValue(body []byte, key string) []byte {
	i := bytes.Index(body, []byte(key))
	if i < 0 {
		return nil
	}
	return bytes.TrimLeft(body[i+len(key):], " ")
}

// decodeRecs decodes a response body in full with the codec's own
// decoder: serving.DecodeRecsResponse, or encoding/json for JSON.
func decodeRecs(c codec, body []byte) ([]serving.Recommendation, error) {
	if c == codecBinary {
		_, _, recs, err := serving.DecodeRecsResponse(body)
		return recs, err
	}
	var resp struct {
		Recs []serving.Recommendation `json:"recommendations"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, fmt.Errorf("decoding JSON response: %w", err)
	}
	return resp.Recs, nil
}

// checkTenantServes checks a daily-batch tenant after a day: present,
// answering, and serving generation want. Two tenants serve an earlier
// generation instead: one the guard sent to a live canary serves its
// previous generation to all but the canary slice, and one whose candidate
// the guard vetoed keeps serving its previous generation, marked degraded
// in the guard phase. A tenant degraded in any other phase fails.
func checkTenantServes(id sigmund.RetailerID, st serving.TenantStatus, ok bool, recs []serving.Recommendation, want int64) error {
	earlier := st.RecsVersion >= 1 && st.RecsVersion < want
	vetoed := st.Degraded && st.DegradedPhase == pipeline.PhaseGuard
	fresh := !st.Degraded && (st.RecsVersion == want || (st.Canary && earlier))
	if !ok || !(fresh || (vetoed && earlier)) {
		return fmt.Errorf("%s: status %+v, want recs of generation %d", id, st, want)
	}
	if len(recs) == 0 {
		return fmt.Errorf("%s: no recommendations", id)
	}
	return nil
}

// checkRetailerDay checks one tenant-day of a RunDay report. A tenant
// degraded by a guard veto is a checked outcome, not a failure: the guard
// judged the candidate's offline MAP a cliff and kept the previous
// generation serving, which checkTenantServes verifies. Any other
// degraded tenant-day fails.
func checkRetailerDay(day int, rr sigmund.RetailerReport) (vetoed bool, err error) {
	if !rr.Degraded {
		return false, nil
	}
	if rr.DegradedPhase == pipeline.PhaseGuard && rr.GuardVerdict == string(guard.VerdictVeto) {
		return true, nil
	}
	return false, fmt.Errorf("day %d: %s degraded in %s: %s", day, rr.Retailer, rr.DegradedPhase, rr.Err)
}

// checkPublishes checks a scheduler drain published every tenant's every
// cycle except the vetoed ones.
func checkPublishes(rep sched.Report, tenants, cycles int) error {
	if want := tenants*cycles - rep.Vetoed; rep.Publishes != want {
		return fmt.Errorf("%d publishes, want %d tenants x %d cycles - %d vetoes", rep.Publishes, tenants, cycles, rep.Vetoed)
	}
	return nil
}

// checkRollingTenants checks every tenant after a scheduler drain, one
// result per tenant plus one for the fleet: each serves, from a generation
// no other tenant serves (each rolling publish is its own generation), and
// the newest generation served is the scheduler's last, unless a tenant is
// on a live canary, whose fresh generation serves only the canary slice.
func checkRollingTenants(ids []sigmund.RetailerID, statuses map[sigmund.RetailerID]serving.TenantStatus, served map[sigmund.RetailerID][]serving.Recommendation, maxGen int64) []error {
	var errs []error
	seen := map[int64]sigmund.RetailerID{}
	var newest int64
	canary := false
	for _, id := range ids {
		st, ok := statuses[id]
		canary = canary || st.Canary
		errs = append(errs, func() error {
			if !ok || st.Degraded || st.RecsVersion < 1 || st.RecsVersion > maxGen {
				return fmt.Errorf("%s: status %+v, want a generation in 1..%d", id, st, maxGen)
			}
			if other, dup := seen[st.RecsVersion]; dup {
				return fmt.Errorf("%s and %s both serve generation %d", other, id, st.RecsVersion)
			}
			seen[st.RecsVersion] = id
			if st.RecsVersion > newest {
				newest = st.RecsVersion
			}
			if len(served[id]) == 0 {
				return fmt.Errorf("%s: no recommendations", id)
			}
			return nil
		}())
	}
	if newest != maxGen && !canary {
		errs = append(errs, fmt.Errorf("newest served generation %d, scheduler's last %d", newest, maxGen))
	} else {
		errs = append(errs, nil)
	}
	return errs
}
