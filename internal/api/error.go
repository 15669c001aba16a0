package api

// Error codes carried in the unified error envelope. Codes are stable
// machine-readable identifiers — clients branch on them, messages are for
// humans. The HTTP status stays the transport-level signal (and Retry-After
// headers are unchanged); the code refines it: a 429 is either "overloaded"
// (bounded-wait admission shed the query) or "throttled" (the client is past
// its per-client quota), which call for different client reactions.
const (
	// CodeBadRequest: malformed body, missing required field, bad header.
	CodeBadRequest = "bad_request"
	// CodeUnauthorized: an admin surface required a bearer token the request
	// did not present (or presented wrongly).
	CodeUnauthorized = "unauthorized"
	// CodeForbidden: an admin surface is loopback-only and the peer is not.
	CodeForbidden = "forbidden"
	// CodeUnknownModel: the request named a model identity that is not
	// registered.
	CodeUnknownModel = "unknown_model"
	// CodeMethodNotAllowed: wrong HTTP method; the Allow header lists the
	// accepted ones.
	CodeMethodNotAllowed = "method_not_allowed"
	// CodeConflict: the operation lost to a concurrent roll (a reload is in
	// progress, or a staged roll is already pending on the identity).
	CodeConflict = "conflict"
	// CodeNoStagedRoll: promote/abort was called on an identity with no
	// shadow or canary roll pending.
	CodeNoStagedRoll = "no_staged_roll"
	// CodeBodyTooLarge: the request body exceeded the endpoint's byte cap.
	CodeBodyTooLarge = "body_too_large"
	// CodeUnprocessable: the request was well-formed but refused — the
	// planner rejected the SQL, or a reload bundle failed validation.
	CodeUnprocessable = "unprocessable"
	// CodeOverloaded: bounded-wait admission shed the query; RetryAfterMS
	// prices when the backlog should be back inside the bound.
	CodeOverloaded = "overloaded"
	// CodeThrottled: the client exhausted its per-client quota; RetryAfterMS
	// says when the next token accrues.
	CodeThrottled = "throttled"
	// CodeDeadlineExpired: the request's deadline passed before a model
	// could run it.
	CodeDeadlineExpired = "deadline_expired"
	// CodeInternal: any other server-side failure.
	CodeInternal = "internal"
)

// Error is the one JSON error shape every v1 endpoint uses, on every failure
// path — parse errors, admission sheds, quota refusals, admin auth, roll
// conflicts. RetryAfterMS mirrors the Retry-After header (in milliseconds,
// so sub-second hints survive) and is present only on the 429 codes.
type Error struct {
	Code         string `json:"code"`
	Message      string `json:"message"`
	RetryAfterMS int64  `json:"retry_after_ms,omitempty"`
}

// Error implements the error interface so a decoded envelope can travel as
// a Go error in clients.
func (e *Error) Error() string { return e.Code + ": " + e.Message }

// ErrorResponse is the envelope: {"error":{"code":...,"message":...}}.
type ErrorResponse struct {
	Error Error `json:"error"`
}
